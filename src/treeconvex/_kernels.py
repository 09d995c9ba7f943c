"""Vectorized per-level evaluation of the mean-value operators.

All operators read only the parent level and the successor level of the
vertex being updated, never the vertex itself, so a whole level can be
evaluated in one shot from a frozen value array (Jacobi) or in place in
leaves-to-root order (Gauss-Seidel).
"""

from __future__ import annotations

import numpy as np

from .tree import TruncatedTree

ENVELOPE_VARIANTS = ("convex", "binary", "kconvex")
LAPLACIAN_VARIANTS = ("laplacian_full", "laplacian_arborescence")
VARIANTS = ENVELOPE_VARIANTS + LAPLACIAN_VARIANTS

# Updates whose float rounding may overshoot the exact convex combination by
# an ulp (k-way and weighted averages); the solver clips these against the
# previous iterate so descent from the sup-initialization stays exact.
CLIPPED_VARIANTS = ("kconvex", "laplacian_full", "laplacian_arborescence")


def full_laplacian_weights(m: int) -> tuple[float, float]:
    """Predecessor and successor-average weights; they sum to exactly 1."""
    c_pred = 2.0 / (m + 1) ** 2
    c_succ = (m * m + 2 * m - 1) / (m + 1) ** 2
    return c_pred, c_succ


def check_variant(variant: str, k: int | None, m: int | None = None) -> None:
    """Validate a variant and its k; the upper bound k <= m is checked only
    when the branching factor is known."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    if variant != "kconvex":
        if k is not None:
            raise ValueError(f"k is only meaningful for variant 'kconvex', got variant {variant!r}")
    elif k is None:
        raise ValueError("variant 'kconvex' requires k")
    elif k < 2 or (m is not None and k > m):
        raise ValueError(f"k must be in [2, {'m' if m is None else f'm={m}'}], got {k}")


# Row kernels: `succ` holds one row of successor values per vertex, `par` the
# parent values as a column, one per run of consecutive rows that share a
# parent (broadcast, not repeated), or None at the root and for the variants
# that read only the successor level.  `_min_kernel` is the one code of the
# convex and binary minimum: it serves the sweeps, the defect, the lift and
# `check`, and with its choice codes the Howard policy step.

# Choice codes of the convex minimum: `first` holds the column of the
# smallest successor, `second` the column of its pair partner or PRED; both
# hold TOUCH where the choice is the obstacle.
PRED, TOUCH = -1, -2


def _assign(codes: np.ndarray, where: np.ndarray, code) -> None:
    """`codes[where] = code` for small-integer codes, as arithmetic: a masked
    write costs many times more.  Exact also where the difference wraps."""
    codes += where * (code - codes)


def _min_kernel(succ: np.ndarray, par: np.ndarray | None, m: int, k: int | None, codes=None):
    """Smallest successor-pair average, and with a parent also the smallest
    predecessor branch (u(parent) + m*u(y)) / (m + 1); with `codes`, an
    integer dtype, also the choice codes (first, second) that attain it.

    One pass over the columns keeps each row's two smallest entries s0 <= s1
    in place, of equal entries the earlier column first, as in a stable sort
    (NumPy's minimum and maximum return the second of two equal arguments)."""
    s0, s1 = np.minimum(succ[:, 1], succ[:, 0]), np.maximum(succ[:, 0], succ[:, 1])
    if codes is not None:
        first = (succ[:, 1] < succ[:, 0]).astype(codes)
        second = 1 - first
    if m > 2:
        buf = np.empty_like(s0)
    for col in range(2, m):
        v = succ[:, col]
        if codes is not None:
            below0 = v < s0
            _assign(second, v < s1, col)
            _assign(second, below0, first)
            _assign(first, below0, col)
        np.maximum(s0, np.minimum(v, s1, out=buf), out=s1)
        np.minimum(v, s0, out=s0)
    op = np.add(s0, s1, out=s1)
    op /= 2.0
    if par is not None:
        branch = np.multiply(s0, m, out=s0)
        by_parent = branch.reshape(len(par), -1)
        by_parent += par
        branch /= m + 1
        if codes is not None:
            _assign(second, branch < op, PRED)
        np.minimum(op, branch, out=op)
    return op if codes is None else (op, first, second)


def _k_smallest_mean(succ: np.ndarray, par: np.ndarray | None, m: int, k: int | None) -> np.ndarray:
    """Smallest average over k-element successor subsets."""
    return np.partition(succ, k - 1, axis=1)[:, :k].sum(axis=1) / k


def _mean_kernel(succ: np.ndarray, par: np.ndarray | None, m: int, k: int | None) -> np.ndarray:
    """Successor average, and with a parent the full-tree weighted mean."""
    mean = succ.mean(axis=1)
    if par is None:
        return mean
    c_pred, c_succ = full_laplacian_weights(m)
    return (c_pred * par + (c_succ * mean).reshape(len(par), -1)).ravel()


# variant -> (row kernel, reads the parent level)
KERNELS = {
    "convex": (_min_kernel, True),
    "binary": (_min_kernel, False),
    "kconvex": (_k_smallest_mean, False),
    "laplacian_full": (_mean_kernel, True),
    "laplacian_arborescence": (_mean_kernel, False),
}


def level_operator(tree: TruncatedTree, values: np.ndarray, level: int, variant: str,
                   k: int | None = None, codes=None):
    """Operator values for every vertex of an interior level, and the min
    kernel's choice codes if `codes` asks for them.

    Reads `values` at levels `level + 1` and (for the predecessor families)
    `level - 1`; the root level uses only the successor terms.
    """
    if not 0 <= level < tree.depth:
        raise ValueError(f"level {level} is not interior (depth {tree.depth})")
    kernel, reads_parent = KERNELS[variant]
    m = tree.m
    succ = values[tree.level_slice(level + 1)].reshape(tree.level_size(level), m)
    par = None
    if reads_parent and level > 0:
        par = values[tree.level_slice(level - 1), None]
    return kernel(succ, par, m, k) if codes is None else kernel(succ, par, m, k, codes)


def operator_levels(tree: TruncatedTree, values: np.ndarray, variant: str, k: int | None,
                    obstacle: np.ndarray | None = None, codes=None, leaves_first: bool = False):
    """(slice, operator values) of each interior level, root to leaves or
    leaves to root, clipped by the obstacle if there is one.  Each level is
    read when the caller asks for it, so a caller that writes a level back
    before the next sweeps Gauss-Seidel.  With `codes`, (slice, values,
    first, second): the choice codes, TOUCH in both where the obstacle clips."""
    levels = range(tree.depth)
    for level in reversed(levels) if leaves_first else levels:
        sl = tree.level_slice(level)
        out = level_operator(tree, values, level, variant, k, codes)
        op, *choice = (out,) if codes is None else out
        if obstacle is not None:
            if choice:
                touch = obstacle[sl] < op
                for c in choice:
                    _assign(c, touch, TOUCH)
            np.minimum(op, obstacle[sl], out=op)
        yield sl, op, *choice
