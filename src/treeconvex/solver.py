"""Solvers for the Dirichlet problems of the envelope equations and the tree
Laplacians, and for the obstacle problem.

Every solve starts from the pointwise largest admissible state (the sup of
the leaf data, or the obstacle itself) and descends to the largest solution,
exactly.  Binary, kconvex and the arborescence Laplacian read only the
successor level, so one leaves-to-root Gauss-Seidel pass solves them, with or
without an obstacle.  The full-tree Laplacian is one pass of the tree
primitive, `_eliminate` and `_back_substitute`, O(n) with no fill-in.  The
convex equation is a minimum of such linear systems, one per choice at each
vertex (pair, predecessor branch, or the obstacle); Howard policy iteration
solves the system of the argmin choice at the iterate until the defect is
within tol or the policy repeats, eliminating again only from the deepest
level whose choices changed.  The policy step takes its choices from the row
kernel that evaluates the operator everywhere else, in the same operator pass
that gives the defect; of tied successors it picks the earliest column.  Each
iterate is a supersolution of the next policy's system, so the evaluations
descend.  The rounding of an evaluation grows with the size of the data;
when it leaves the defect above tol, Gauss-Seidel sweeps from a float
supersolution just above the iterate finish the solve.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from numbers import Real

import numpy as np

from ._kernels import (PRED, TOUCH, _VARIANTS, _mean_kernel, check_variant, full_laplacian_weights,
                       operator_levels)
from .functions import TreeFunction
from .tree import TruncatedTree, Vertex, check_integer


@dataclass(frozen=True)
class SolveConfig:
    variant: str = "convex"
    k: int | None = None
    tol: float = 1e-12
    max_iter: int = 1_000_000

    def __post_init__(self) -> None:
        check_variant(self.variant, self.k)
        if isinstance(self.tol, bool) or not (isinstance(self.tol, Real) and 0 < self.tol < np.inf):
            raise ValueError(f"tol must be finite and positive, got {self.tol!r}")
        check_integer("max_iter", self.max_iter)
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass
class SolveReport:
    solution: TreeFunction
    iterations: int  # sweeps, or policy evaluations plus finishing sweeps
    final_residual: float
    converged: bool
    monotone: bool  # no evaluation rose beyond tol + rounding (sweeps never rise)
    worst_vertex: Vertex  # an interior vertex where the final defect peaks
    last_change: float  # sup-norm change made by the last sweep or evaluation


@dataclass
class ObstacleResult:
    envelope: TreeFunction
    coincidence_mask: np.ndarray
    report: SolveReport


def _peak(level_values: np.ndarray, op: np.ndarray, start: int, worst: float,
          at: int) -> tuple[float, int]:
    """Fold |u - operator(u)| of one level (written into `op`; flat indices
    from `start`) into the sup `worst` at `at`, levels leaves to root: NaN is
    the largest, and a tie goes to the shallower level, the first in flat order."""
    gap = np.abs(np.subtract(level_values, op, out=op), out=op)
    i = int(np.argmax(gap))  # the first NaN, if there is one
    if np.isnan(gap[i]) or gap[i] >= worst:
        return float(gap[i]), start + i
    return worst, at


def _defect(tree: TruncatedTree, values: np.ndarray, variant: str, k: int | None,
            obstacle: np.ndarray | None = None) -> tuple[float, int]:
    """Sup-norm equation defect over interior vertices (the only vertices the
    truncated system constrains; leaves are clamped exactly), one level at a
    time, and the flat index of the first vertex where it peaks."""
    worst, at = -1.0, 0
    for sl, op in operator_levels(tree, values, variant, k, obstacle):
        worst, at = _peak(values[sl], op, sl.start, worst, at)
    return worst, at


def _dirichlet_start(tree: TruncatedTree, leaf_values) -> np.ndarray:
    """The start state of a Dirichlet solve: the leaves clamped to the data
    (an array in leaf order), the interior at its sup."""
    g = np.asarray(leaf_values, dtype=np.float64)
    if g.shape != (tree.leaf_count,):
        raise ValueError(f"expected {tree.leaf_count} leaf values, got shape {g.shape}")
    if not np.isfinite(g).all():
        raise ValueError("leaf values must be finite")
    values = np.empty(tree.vertex_count)
    values[tree.leaf_slice] = g
    values[tree.interior_slice] = g.max()
    return values


def _iterate(tree: TruncatedTree, values: np.ndarray, cfg: SolveConfig,
             obstacle: np.ndarray | None = None) -> SolveReport:
    """Gauss-Seidel sweeps on `values` (leaves already clamped, interior a
    float supersolution), in place and level by level from the leaves to the
    root, so each level sees the level below it already updated, until a
    sweep changes no value by more than tol and the defect is within it, or a
    change or the defect is not finite.  One pass is exact for the variants
    that read only the successor level.  As in `_back_substitute`, every
    vertex keeps the smaller of min(obstacle, operator) and its previous
    value: no sweep rises, though float averaging can overshoot by an ulp."""
    iterations = 0
    while True:
        change = 0.0
        for sl, new_level in operator_levels(tree, values, cfg.variant, cfg.k, obstacle):
            np.minimum(new_level, values[sl], out=new_level)
            # np.maximum keeps a NaN change, which the builtin max drops
            change = float(np.maximum(change, np.max(values[sl] - new_level)))
            values[sl] = new_level
        iterations += 1
        stop = iterations == cfg.max_iter or not np.isfinite(change)
        if change <= cfg.tol or stop:
            defect, worst = _defect(tree, values, cfg.variant, cfg.k, obstacle)
            if defect <= cfg.tol or stop or not np.isfinite(defect):
                break
    return SolveReport(TreeFunction(tree, values), iterations, defect, defect <= cfg.tol,
                       True, tree.vertex_at(worst), change)


def _eliminate(tree: TruncatedTree, values: np.ndarray, alpha: np.ndarray, beta: np.ndarray,
               system, level: int | None = None) -> None:
    """The tree primitive, leaves to root: write the solution of u(x) =
    a_x u(parent) + sum_c w_xc u(c) + b_x at every interior vertex, with
    the leaves of `values` clamped, as rows u(x) = alpha_x u(parent) +
    beta_x in `alpha` and `beta` (interior only; a leaf's alpha is 0, its
    beta its value).  The root's alpha is 0; `_back_substitute` solves.

    A row depends only on the equations at and below its vertex, so the
    rows are written from `level` (default: the deepest interior level) up
    to the root, and deeper rows are kept from the last call.
    `system(level, alpha_succ, beta_succ, alpha_row, beta_row)` writes one
    level's sum_c w_xc alpha_c into `alpha_row` (which holds zeros above the
    leaves, where alpha_succ is None) and sum_c w_xc beta_c + b_x into
    `beta_row`, from its successors' rows, and returns a_x.
    """
    m, last = tree.m, tree.depth - 1
    for level in range(last if level is None else level, -1, -1):
        n, sl, succ = tree.level_size(level), tree.level_slice(level), tree.level_slice(level + 1)
        if level == last:
            alpha_succ, beta_succ = None, values[succ].reshape(n, m)
            alpha[sl] = 0.0
        else:
            alpha_succ, beta_succ = alpha[succ].reshape(n, m), beta[succ].reshape(n, m)
        a = system(level, alpha_succ, beta_succ, alpha[sl], beta[sl])
        pivot = np.subtract(1.0, alpha[sl], out=alpha[sl])
        beta[sl] /= pivot
        np.divide(a, pivot, out=alpha[sl])


def _back_substitute(tree: TruncatedTree, values: np.ndarray, alpha: np.ndarray,
                     beta: np.ndarray, slack: float) -> tuple[float, bool]:
    """Root to leaves, the solution u(x) = alpha_x u(parent) + beta_x of the
    rows `_eliminate` wrote, each level from the level above as solved, into
    an interior of `values` that holds the previous iterate: every vertex
    keeps the smaller of the two.  Returns the sup-norm change and whether
    no vertex rose above the previous iterate by more than `slack`."""
    change, within = 0.0, True
    new = beta[:1].copy()
    for level in range(tree.depth):
        sl = tree.level_slice(level)
        if level:
            new = np.multiply(alpha[sl].reshape(len(new), -1), new[:, None]).ravel()
            new += beta[sl]
        prev = values[sl]
        kept = np.add(prev, slack)
        within = within and bool(np.all(new <= kept))
        np.minimum(new, prev, out=kept)
        drop = np.subtract(prev, kept, out=prev)  # then overwritten by `kept`
        # np.maximum keeps a NaN change, which the builtin max drops
        change = float(np.maximum(change, np.max(drop)))
        prev[...] = kept
    return change, within


def _laplacian_system(tree: TruncatedTree):
    """Level coefficients of the full-tree Laplacian for `_eliminate`; the
    root uses the successor-average rule."""
    c_pred, c_succ = full_laplacian_weights(tree.m)

    def system(level, alpha_succ, beta_succ, alpha_row, beta_row):
        a, w = (c_pred, c_succ) if level > 0 else (0.0, 1.0)
        if alpha_succ is not None:
            np.multiply(w, _mean_kernel(alpha_succ, None, tree.m, None), out=alpha_row)
        np.multiply(w, _mean_kernel(beta_succ, None, tree.m, None), out=beta_row)
        return a

    return system


class _ConvexPolicy:
    """Howard policy of the convex equation and of its obstacle problem: at
    every interior vertex, the argmin choice among the smallest successor
    pair, the predecessor branch with the smallest successor, and the
    obstacle.  Stored as the min kernel's two choice-code columns (see
    `_kernels.PRED` and `TOUCH`)."""

    def __init__(self, tree: TruncatedTree, obstacle: np.ndarray | None) -> None:
        self.tree, self.obstacle = tree, obstacle
        dtype = np.min_scalar_type(-tree.m)
        self.first = np.zeros(tree.interior_count, dtype)
        self.second = np.zeros(tree.interior_count, dtype)

    def improve(self, values: np.ndarray) -> tuple[float, int, int]:
        """Store at every interior vertex the choice that attains the operator
        at `values`.  Returns the defect of `values` and its flat index, as
        `_defect` does, and the deepest level whose stored choices changed
        (-1 if none did)."""
        worst, at, deepest = -1.0, 0, -1
        for level, (sl, op, first, second) in zip(reversed(range(self.tree.depth)), operator_levels(
                self.tree, values, "convex", None, self.obstacle, self.first.dtype)):
            if not (np.array_equal(first, self.first[sl])
                    and np.array_equal(second, self.second[sl])):
                deepest = max(deepest, level)
                self.first[sl], self.second[sl] = first, second
            worst, at = _peak(values[sl], op, sl.start, worst, at)
        return worst, at, deepest

    def system(self, level: int, alpha_succ, beta_succ, alpha_row, beta_row):
        """Level coefficients of the stored policy's equation for `_eliminate`,
        written into the level's rows.

        The chosen successors are read by one gather per code column, through
        flat indices built in place; at m = 2 a pair is both columns, so only
        the predecessor branch reads `first`.  Rows whose code is not a column
        (TOUCH, or PRED in `second`) read a neighbour and are overwritten."""
        m = self.tree.m
        sl = self.tree.level_slice(level)
        first, second = self.first[sl], self.second[sl]
        branch = second == PRED

        def column(codes):  # flat index of each row's code column
            index = np.arange(0, len(codes) * m, m)
            index += codes
            return index

        j0, j1 = column(first), column(second) if m > 2 else None

        def weigh(succ, out):  # sum_c w_xc succ_c
            flat = succ.ravel()
            head = flat.take(j0, mode="clip")
            if j1 is None:
                np.add(succ[:, 0], succ[:, 1], out=out)
            else:
                np.add(head, flat.take(j1, mode="clip"), out=out)
            out /= 2.0
            np.multiply(head, m / (m + 1), out=out, where=branch)

        if alpha_succ is not None:
            weigh(alpha_succ, alpha_row)
        weigh(beta_succ, beta_row)
        if self.obstacle is not None:
            touch = first == TOUCH
            np.copyto(alpha_row, 0.0, where=touch)
            np.copyto(beta_row, self.obstacle[sl], where=touch)
        return np.where(branch, 1.0 / (m + 1), 0.0)


def _lift(tree: TruncatedTree, values: np.ndarray, cfg: SolveConfig,
          obstacle: np.ndarray | None, c: float, base: np.ndarray) -> None:
    """Raise the interior of `values` to a float supersolution, u >=
    min(obstacle, operator(u)) at every interior vertex, by adding
    c * (depth - level), doubling c until it holds.
    `base` is a free interior-size buffer.

    The lift falls by c per level towards the leaves, so every choice of
    either operator lowers it by a fixed fraction of c, and a lift well above
    the defect of `values` absorbs the defect and the rounding."""
    base[:] = values[tree.interior_slice]
    while True:
        for level in range(tree.depth):
            sl = tree.level_slice(level)
            values[sl] = base[sl] + c * (tree.depth - level)
        if all(np.all(values[sl] >= op)
               for sl, op in operator_levels(tree, values, cfg.variant, cfg.k, obstacle)):
            return
        c *= 2.0


def _howard(tree: TruncatedTree, values: np.ndarray, cfg: SolveConfig,
            obstacle: np.ndarray | None = None) -> SolveReport:
    """The direct engine for the variants that read the parent level, on
    `values` (leaves clamped, interior at its initial state): one exact
    solve for a Laplacian, Howard policy iteration for an envelope.  An
    evaluation eliminates again only from the deepest level whose policy
    changed."""
    interior = tree.interior_slice
    policy = _ConvexPolicy(tree, obstacle) if _VARIANTS[cfg.variant].envelope else None
    system = _laplacian_system(tree) if policy is None else policy.system
    alpha, beta = np.empty(tree.interior_count), np.empty(tree.interior_count)
    if policy is not None:
        policy.improve(values)
    iterations, monotone, changed = 0, True, tree.depth - 1
    while True:
        _eliminate(tree, values, alpha, beta, system, changed)
        iterations += 1
        # In exact arithmetic an evaluation never rises above the previous
        # iterate, but rounding can lift it by a few ulps of the data: only a
        # rise beyond tol plus 4 ulps per level counts against `monotone`,
        # and the iterate keeps the smaller value, so the descent stays exact.
        prev = values[interior]
        rounding = 4 * tree.depth * np.spacing(max(-prev.min(), prev.max()))
        change, within = _back_substitute(tree, values, alpha, beta, cfg.tol + rounding)
        monotone = monotone and within
        if policy is None:
            (defect, worst), changed = _defect(tree, values, cfg.variant, cfg.k), -1
        else:
            defect, worst, changed = policy.improve(values)
        # An unchanged policy would evaluate to the same iterate again.
        if not (defect > cfg.tol and changed >= 0 and iterations < cfg.max_iter):
            break
    if np.isfinite(defect) and defect > cfg.tol and iterations < cfg.max_iter:
        # The policy is optimal, but the rounding of its evaluation grows with
        # the size of the data and left the defect above tol.  Gauss-Seidel
        # sweeps from a float supersolution just above the iterate descend to
        # a float fixed point, as the reference engines do from the sup.  The
        # lift is not an evaluation and does not count against `monotone`.
        _lift(tree, values, cfg, obstacle, defect, alpha)
        rest = _iterate(tree, values, replace(cfg, max_iter=cfg.max_iter - iterations), obstacle)
        return replace(rest, iterations=iterations + rest.iterations, monotone=monotone)
    return SolveReport(TreeFunction(tree, values), iterations, defect, defect <= cfg.tol,
                       monotone, tree.vertex_at(worst), change)


def _solve(tree: TruncatedTree, values: np.ndarray, cfg: SolveConfig,
           obstacle: np.ndarray | None = None) -> SolveReport:
    # data near the float maximum overflow the operators; the report then
    # names a defect that is not finite, and NumPy's warnings would only
    # come first
    with np.errstate(over="ignore", invalid="ignore"):
        if _VARIANTS[cfg.variant].reads_parent:
            return _howard(tree, values, cfg, obstacle)
        return _iterate(tree, values, replace(cfg, max_iter=1), obstacle)


def solve_dirichlet(tree: TruncatedTree, leaf_values, cfg: SolveConfig) -> SolveReport:
    """Largest solution of the chosen equation with the given leaf data:
    leaves stay clamped, the interior starts at max(leaf data) and the
    iterates descend to the fixed point.  The Laplacian updates are convex
    combinations, so the discrete maximum principle holds; the root of the
    full-tree Laplacian uses the successor-average rule."""
    check_variant(cfg.variant, cfg.k, tree.m)
    return _solve(tree, _dirichlet_start(tree, leaf_values), cfg)


def solve_obstacle(obstacle: TreeFunction, cfg: SolveConfig) -> ObstacleResult:
    """Largest function below the obstacle, on its tree, satisfying the
    operator inequality: start at the obstacle and descend to the largest
    solution of u = min(obstacle, operator(u)).  The coincidence mask marks
    vertices where the envelope touches the obstacle (within cfg.tol); leaves
    are clamped to the obstacle."""
    if not _VARIANTS[cfg.variant].envelope:
        raise ValueError(f"variant {cfg.variant!r} is not an envelope equation")
    check_variant(cfg.variant, cfg.k, obstacle.tree.m)
    obstacle.validate()
    f = obstacle.values  # read, never written: the engine works on its own copy
    report = _solve(obstacle.tree, f.copy(), cfg, obstacle=f)
    mask = np.abs(report.solution.values - f) <= cfg.tol
    return ObstacleResult(envelope=report.solution, coincidence_mask=mask, report=report)


def residual(u: TreeFunction, variant: str, k: int | None = None) -> float:
    """Sup-norm defect of the variant's equation over the interior vertices
    of u's tree."""
    check_variant(variant, k, u.tree.m)
    u.validate()
    return _defect(u.tree, u.values, variant, k)[0]
