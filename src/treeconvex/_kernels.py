"""Vectorized per-level evaluation of the mean-value operators.

All operators read only the parent level and the successor level of the
vertex being updated, never the vertex itself, so a whole level is
evaluated in one shot, and a sweep writes it back in place, leaves to root.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .tree import TruncatedTree, check_integer


def full_laplacian_weights(m: int) -> tuple[float, float]:
    """Predecessor and successor-average weights; they sum to exactly 1."""
    c_pred = 2.0 / (m + 1) ** 2
    c_succ = (m * m + 2 * m - 1) / (m + 1) ** 2
    return c_pred, c_succ


def check_variant(variant: str, k: int | None, m: int | None = None,
                  name: str | None = None) -> None:
    """Validate a variant and its k; the upper bound k <= m is checked only
    when the branching factor is known.  Errors call the variant `name`
    (default: `variant`)."""
    if variant not in _VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {tuple(_VARIANTS)}")
    name = repr(name or variant)
    if not _VARIANTS[variant].takes_k:
        if k is not None:
            takers = " or ".join(repr(v) for v, row in _VARIANTS.items() if row.takes_k)
            raise ValueError(f"k is only meaningful for variant {takers}, got variant {name}")
    elif k is None:
        raise ValueError(f"variant {name} requires k")
    else:
        check_integer("k", k)
        if k < 2 or (m is not None and k > m):
            raise ValueError(f"k must be in [2, {'m' if m is None else f'm={m}'}], got {k}")


# Row kernels: `succ` holds one row of successor values per vertex, `par` the
# parent values as a column, one per run of consecutive rows that share a
# parent (broadcast, not repeated), or None at the root and for the variants
# that read only the successor level.  `_min_kernel` is the one code of the
# convex and binary minimum: it serves the sweeps, the defect, the lift and
# `check`, and with its choice codes the Howard policy step, with no sort.
# `_mean_kernel` is the one successor mean, of the Laplacians, their
# elimination and kconvex's k smallest (each row sorted once).  Both pass
# over the columns left to right; the mean sums them from 0.0, as NumPy sums
# fewer than 8 terms (8 or more pairwise).

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
    """Smallest average over k-element subsets: the first k of each sorted row."""
    return _mean_kernel(np.sort(succ, axis=1)[:, :k], None, k, None)


def _mean_kernel(succ: np.ndarray, par: np.ndarray | None, m: int, k: int | None) -> np.ndarray:
    """Successor average, and with a parent the full-tree weighted mean."""
    mean = np.zeros(len(succ))
    for col in succ.T:
        mean += col
    mean /= succ.shape[1]
    if par is None:
        return mean
    c_pred, c_succ = full_laplacian_weights(m)
    return (c_pred * par + (c_succ * mean).reshape(len(par), -1)).ravel()


# Every per-variant fact, one row per variant.  `reads_parent`: else one
# leaves-to-root pass solves it.  `envelope`: a minimum over choices, else a
# Laplacian (one linear system).  `cli`: the `--variant` spelling.
_Variant = namedtuple("_Variant", "kernel reads_parent takes_k envelope cli")
_VARIANTS = {
    "convex": _Variant(_min_kernel, True, False, True, "convex"),
    "binary": _Variant(_min_kernel, False, False, True, "binary"),
    "kconvex": _Variant(_k_smallest_mean, False, True, True, "kconvex"),
    "laplacian_full": _Variant(_mean_kernel, True, False, False, "laplacian-full"),
    "laplacian_arborescence": _Variant(_mean_kernel, False, False, False, "laplacian-arb"),
}
ENVELOPE_VARIANTS = tuple(v for v, row in _VARIANTS.items() if row.envelope)
LAPLACIAN_VARIANTS = tuple(v for v, row in _VARIANTS.items() if not row.envelope)


def level_operator(tree: TruncatedTree, values: np.ndarray, level: int, variant: str,
                   k: int | None = None, codes=None):
    """Operator values for every vertex of an interior level, and the min
    kernel's choice codes if `codes` asks for them.

    Reads `values` at levels `level + 1` and (for the predecessor families)
    `level - 1`; the root level uses only the successor terms.
    """
    if not 0 <= level < tree.depth:
        raise ValueError(f"level {level} is not interior (depth {tree.depth})")
    row = _VARIANTS[variant]
    m = tree.m
    succ = values[tree.level_slice(level + 1)].reshape(tree.level_size(level), m)
    par = None
    if row.reads_parent and level > 0:
        par = values[tree.level_slice(level - 1), None]
    return row.kernel(succ, par, m, k) if codes is None else row.kernel(succ, par, m, k, codes)


def operator_levels(tree: TruncatedTree, values: np.ndarray, variant: str, k: int | None,
                    obstacle: np.ndarray | None = None, codes=None):
    """(slice, operator values) of each interior level, leaves to root, as
    the elimination runs, capped by the obstacle if there is one.  Each level
    is read when the caller asks for it, so a caller that writes a level back
    before the next sweeps Gauss-Seidel.  With `codes`, (slice, values,
    first, second): the choice codes, TOUCH in both where the obstacle clips."""
    for level in reversed(range(tree.depth)):
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
