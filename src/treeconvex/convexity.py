"""The convex and binary operators at one vertex, and the convexity predicates.

Two routes to every convexity notion are kept deliberately separate:

* operator form - the one-step min inequality at each vertex, evaluated
  level by level by the kernels of `treeconvex._kernels`, or at one vertex
  from its successor (and predecessor) values by `op_convex` and
  `op_binary`;
* definitional form - brute force over the defining objects (minimal-path
  segments, or finite binary subtrees with their endpoint weights).

The brute-force predicates are quadratic or worse and refuse inputs above a
fixed desk-scale budget instead of silently running forever.  The subtree
count is taken in closed form before any build and stops at the budget, so
a skip is as cheap at any depth and names the budget, not the count.  The
segment constraints are built in closed form with NumPy, in blocks of vertex
pairs each tested as it is built, and the subtree averages level by level
from the leaves up, in blocks each tested as it is built; `tests/oracles.py`
rebuilds both from the definitions on digit tuples, with exact distances, as
the test reference.  The k-convex operator, the eigenvalue families, the
Laplacians and the closed-form reference functions at one vertex, which only
tests use, live there too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Real

import numpy as np

from ._kernels import operator_levels
from .functions import TreeFunction
from .tree import TruncatedTree, Vertex

# Measured on a 2-vCPU x86 VM with NumPy 2.4.  The segment constraints are
# built and tested SEGMENT_BLOCK_PAIRS vertex pairs at a time, each block's
# pairs found from their pair numbers and the block dropped once tested, so
# nothing the check holds grows with the pair count.  At the edge, m=2 depth
# 8 (511 vertices, 130,305 pairs, 1,448,703 constraints), the tracemalloc
# peak is 2.6 MB (179 MB in one piece), and 2.1 MB at depth 7; blocks of
# 512, 1024 and 2048 pairs took 154, 127 and 112 ms at depth 8, one piece
# 188 ms.  The subtree averages are built and tested at most
# SUBTREE_BLOCK_AVERAGES at a time, and only the levels below the root keep
# theirs, for the level above.  At the edge, m=2 depth 5 checks 459,829
# subtrees, 458,329 at the root, with a 0.7 MB peak in 1.4-2.2 ms (a whole
# level at once: 7.8 MB and 8-11 ms), and m=1414 depth 1 checks 998,991 in
# 16 ms.  So SUBTREE_ENUMERATION_BUDGET bounds time, not memory.
SEGMENT_VERTEX_BUDGET = 512
SEGMENT_BLOCK_PAIRS = 1024
SUBTREE_ENUMERATION_BUDGET = 1_000_000
SUBTREE_BLOCK_AVERAGES = 2**15


# ---------------------------------------------------------------------------
# pointwise operators
# ---------------------------------------------------------------------------

def _successor_values(u: TreeFunction, x: Vertex) -> np.ndarray:
    tree = u.tree
    if not tree.is_interior(x):
        raise ValueError(f"operator undefined at leaf {x} (no successors in the tree)")
    off = tree.level_offset(x.level + 1) + x.index * tree.m
    return u.values[off : off + tree.m]


def _parent_value(u: TreeFunction, x: Vertex) -> float:
    return float(u.values[u.tree.flat_index(x.parent)])


def op_convex(u: TreeFunction, x: Vertex) -> float:
    """min of successor-pair averages and, off the root, of the predecessor
    branches (u(parent) + m*u(y)) / (m+1)."""
    m = u.tree.m
    s = _successor_values(u, x)
    part = np.partition(s, 1)
    pair = (part[0] + part[1]) / 2.0
    if x.is_root:
        return float(pair)
    pred = (_parent_value(u, x) + m * part[0]) / (m + 1)
    return float(min(pair, pred))


def op_binary(u: TreeFunction, x: Vertex) -> float:
    """min over unordered successor pairs of the pair average."""
    s = _successor_values(u, x)
    part = np.partition(s, 1)
    return float((part[0] + part[1]) / 2.0)


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------

@dataclass
class ConvexityCheck:
    """Outcome of a convexity predicate.

    `ok` is None when the check was skipped (brute-force budget exceeded);
    `skipped` then carries the reason.  `violations` holds the flat indices
    of the violating vertices, in the order found.
    """

    ok: bool | None
    checked: int
    skipped: str | None = None
    violations: list[int] = field(default_factory=list)


def _check_input(u: TreeFunction, tol: float) -> None:
    # with a nan value or tol every `u > bound + tol` is False, so every check
    # would pass; a negative tol would flag exact equalities
    u.validate()
    if isinstance(tol, bool) or not (isinstance(tol, Real) and 0 <= tol < np.inf):
        raise ValueError(f"tol must be finite and non-negative, got {tol!r}")


def _operator_check(u: TreeFunction, variant: str, tol: float) -> ConvexityCheck:
    tree = u.tree
    flat = []
    for sl, op in operator_levels(tree, u.values, variant, None):  # leaves to root
        flat[:0] = (sl.start + np.flatnonzero(u.values[sl] > op + tol)).tolist()
    return ConvexityCheck(ok=not flat, checked=tree.interior_count, violations=flat)


def is_convex_operator(u: TreeFunction, tol: float = 1e-9) -> ConvexityCheck:
    """u(x) <= op_convex(u, x) + tol at every interior vertex (the root is
    checked against the successor-pair term only)."""
    _check_input(u, tol)
    return _operator_check(u, "convex", tol)


def _segment_constraints(tree: TruncatedTree):
    """All interpolation constraints u(z) <= wx*u(x) + wy*u(y) for z strictly
    inside a minimal path [x, y], as flat-index/weight arrays, in blocks of
    SEGMENT_BLOCK_PAIRS consecutive pairs: pairs x < y in flat order, then z
    in path order from x.

    Distances are scaled by m^L to integers: a level-j edge has length
    m^(L-j), and a vertex at level l lies cum[l] = sum_{j<=l} m^(L-j) below
    the root.  Every distance is an integer below 2^53 under the budget, so
    each weight is one correctly rounded division, as float(Fraction) is."""
    m, depth = tree.m, tree.depth
    pw = m ** np.arange(depth + 1, dtype=np.int64)
    cum = np.concatenate(([0], np.cumsum(pw[::-1][1:])))
    off = np.concatenate(([0], np.cumsum(pw)))
    level = np.repeat(np.arange(depth + 1), pw)
    n, flat = tree.vertex_count, np.arange(tree.vertex_count)
    index = flat - off[level]
    # pairs are numbered from 0 in order; the n - 1 - a pairs (a, b) start
    # at number starts[a], so pair k lies in the last row starting at <= k
    total, starts = n * (n - 1) // 2, flat * (n - 1) - flat * (flat - 1) // 2
    for start in range(0, total, SEGMENT_BLOCK_PAIRS):
        k = np.arange(start, min(start + SEGMENT_BLOCK_PAIRS, total))
        a = np.searchsorted(starts, k, side="right") - 1
        b = k - starts[a] + a + 1
        la, lb, ia, ib = level[a], level[b], index[a], index[b]
        # common-ancestor level: the number of levels l >= 1 whose ancestors
        # agree (a < b in flat order, so la <= lb)
        lw = np.zeros_like(a)
        for lv in range(1, depth + 1):
            lw += (la >= lv) & (ia // pw[np.maximum(la - lv, 0)] == ib // pw[np.maximum(lb - lv, 0)])
        inner = la + lb - 2 * lw - 1  # path vertices strictly between x and y: 0 for an edge
        pair = np.repeat(np.arange(a.size), inner)
        t = np.arange(pair.size) - np.repeat(np.cumsum(inner) - inner, inner) + 1
        la, lb, ia, ib, lw = la[pair], lb[pair], ia[pair], ib[pair], lw[pair]
        up = t <= la - lw  # z on the way up from x, else on the way down to y
        lz = np.where(up, la - t, 2 * lw + t - la)
        iz = off[lz] + np.where(up, ia, ib) // pw[np.where(up, la, lb) - lz]
        dxy = cum[la] + cum[lb] - 2 * cum[lw]
        dxz = np.where(up, cum[la] - cum[lz], cum[la] + cum[lz] - 2 * cum[lw])
        yield iz, a[pair], b[pair], (dxy - dxz) / dxy, dxz / dxy


def is_convex_segment(u: TreeFunction, tol: float = 1e-9) -> ConvexityCheck:
    """Brute force over all vertex triples x, y, z with z inside the minimal
    path [x, y]: checks the distance-weighted interpolation inequality."""
    _check_input(u, tol)
    tree = u.tree
    if tree.vertex_count > SEGMENT_VERTEX_BUDGET:
        return ConvexityCheck(
            ok=None, checked=0,
            skipped=f"budget: {tree.vertex_count} vertices exceed "
                    f"{SEGMENT_VERTEX_BUDGET} for the segment brute force")
    vals = u.values
    flat, checked = {}, 0
    for iz, ix, iy, wx, wy in _segment_constraints(tree):
        bad = vals[iz] > wx * vals[ix] + wy * vals[iy] + tol
        # a union keeps each vertex where the first block to flag it put it
        flat |= dict.fromkeys(iz[bad].tolist())
        checked += iz.size
    return ConvexityCheck(ok=not flat, checked=checked, violations=list(flat))


# ---------------------------------------------------------------------------
# binary subtrees
# ---------------------------------------------------------------------------

def _subtree_count(m: int, rel: int, cap: int | None = None) -> int:
    """Number of binary subtrees rooted at one vertex with endpoints at most
    `rel` levels below it, or `cap` when that is smaller.  A vertex with r
    levels below it carries ways(r) = 1 + C(m,2) * ways(r-1)^2 hanging shapes,
    ways(0) = 1: itself alone, or a pair of successors with a shape below
    each; the subtrees are every shape but the vertex alone.  Each step only
    grows, so stopping at the cap gives the same minimum without squaring
    integers whose size doubles per level."""
    pairs = m * (m - 1) // 2
    ways = 1
    for _ in range(rel):
        ways = 1 + pairs * ways * ways
        if cap is not None and ways - 1 >= cap:
            return cap
    return ways - 1


def _subtree_row_count(tree: TruncatedTree) -> int:
    """The number of binary subtrees of all interior vertices, in closed form,
    before any build; the count stops at the first value past the budget."""
    cap = SUBTREE_ENUMERATION_BUDGET + 1
    return min(cap, sum(tree.level_size(lv) * _subtree_count(tree.m, tree.depth - lv, cap)
                        for lv in range(tree.depth)))


def _subtree_averages(tree: TruncatedTree, values: np.ndarray):
    """From the leaves up, (slice, averages) blocks for each interior level:
    row x of a level's averages holds the endpoint average of every binary
    subtree rooted at x, an endpoint k levels below x weighing 2^-k, and the
    level's blocks, side by side, are those rows.

    A shape hanging at y is y alone or a binary subtree rooted at y; a
    subtree rooted at x is a successor pair i < j with a shape hanging at
    each, so its average is the mean of the two shapes' averages.  Columns
    run over the pairs in lexicographic order, then over the shape at i, then
    over the shape at j, each vertex alone before its subtrees.  A block is
    a run of whole pairs, or one pair and a run of the shapes at i: at most
    SUBTREE_BLOCK_AVERAGES averages, or one shape at i with every shape at j
    where that is more.  Only the levels below the root keep their shapes,
    for the level above."""
    m = tree.m
    first, second = np.triu_indices(m, 1)
    shapes = values[tree.leaf_slice][:, None]
    for level in range(tree.depth - 1, -1, -1):
        rows = tree.level_slice(level)
        h = shapes.reshape(tree.level_size(level), m, -1)
        n, w = len(h), h.shape[2]
        if level:
            shapes = np.empty((n, 1 + first.size * w * w))
            shapes[:, 0] = values[rows]
        pairs = max(1, SUBTREE_BLOCK_AVERAGES // (n * w * w))
        at_i = min(w, max(1, SUBTREE_BLOCK_AVERAGES // (n * w)))
        col = 1
        for p in range(0, first.size, pairs):
            left = h[:, first[p : p + pairs], :, None]
            right = h[:, second[p : p + pairs], None, :]
            for a in range(0, w, at_i):
                block = left[:, :, a : a + at_i] + right
                block /= 2
                block = block.reshape(n, -1)
                yield rows, block
                if level:
                    shapes[:, col : col + block.shape[1]] = block
                    col += block.shape[1]


def is_binary_convex(u: TreeFunction, tol: float = 1e-9, mode: str = "operator") -> ConvexityCheck:
    """Binary convexity either via the one-step pair-min inequality at every
    interior vertex ("operator") or by brute force over all finite binary
    subtrees, down to the leaves ("subtrees")."""
    _check_input(u, tol)
    if mode == "operator":
        return _operator_check(u, "binary", tol)
    if mode != "subtrees":
        raise ValueError(f"mode must be 'operator' or 'subtrees', got {mode!r}")
    tree = u.tree
    total = _subtree_row_count(tree)
    if total > SUBTREE_ENUMERATION_BUDGET:
        return ConvexityCheck(
            ok=None, checked=0,
            skipped=f"budget: more than {SUBTREE_ENUMERATION_BUDGET} binary subtrees")
    vals = u.values
    # interior vertices are the first flat indices, so the violations come
    # in flat order, the root's level first
    bad = np.zeros(tree.interior_count, dtype=bool)
    for rows, averages in _subtree_averages(tree, vals):
        bad[rows] |= (vals[rows, None] > averages + tol).any(axis=1)
    return ConvexityCheck(ok=not bad.any(), checked=total, violations=np.flatnonzero(bad).tolist())
