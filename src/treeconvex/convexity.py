"""The convex and binary operators at one vertex, and the convexity predicates.

Two routes to every convexity notion are kept deliberately separate:

* operator form - the one-step min inequality at each vertex, evaluated
  level by level by the kernels of `treeconvex._kernels`; `op_convex` and
  `op_binary` evaluate it at one vertex for the benchmark's sampled checks
  (`perfbench/`), and the tests take theirs from `tests/oracles.py`;
* definitional form - the inequality over the defining objects (minimal-path
  segments, or finite binary subtrees with their endpoint weights), reduced
  exactly to one leaves-to-root pass each.

A binary subtree's endpoint average at x is the mean of the averages of the
shapes hanging at two successors, a shape being a vertex alone or a subtree
rooted there, so the least average is the pair minimum of the binary
obstacle envelope of u: the paper's obstacle characterization.  A vertex z
lies strictly inside a minimal path [x, y] exactly when x and y lie in
different components of the tree minus z, so the segment check needs only
the least slope into each component.  Neither pass takes a budget; both run
in O(n) memory.  `tests/oracles.py` enumerates every segment and subtree
from the definitions on digit tuples, with exact distances, as the test
reference.  The k-convex operator, the eigenvalue families, the Laplacians
and the closed-form reference functions at one vertex, which only tests
use, live there too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from numbers import Real

import numpy as np

from ._kernels import operator_levels
from .functions import TreeFunction
from .tree import Vertex


# ---------------------------------------------------------------------------
# pointwise operators
# ---------------------------------------------------------------------------

def _pair_term(u: TreeFunction, x: Vertex) -> tuple[float, float]:
    """(the least successor-pair average at x, the smallest successor value),
    from one read of x's m successors, which start at flat index
    m * flat(x) + 1."""
    tree = u.tree
    first = tree.m * tree.flat_index(x) + 1
    if x.level == tree.depth:
        raise ValueError(f"operator undefined at leaf {x} (no successors in the tree)")
    part = np.partition(u.values[first : first + tree.m], 1)
    return (part[0] + part[1]) / 2.0, part[0]


def op_convex(u: TreeFunction, x: Vertex) -> float:
    """min of op_binary's pair term and, off the root, of the predecessor
    branches (u(parent) + m*u(y)) / (m+1)."""
    pair, low = _pair_term(u, x)
    if x.is_root:
        return float(pair)
    m = u.tree.m
    return float(min(pair, (u.values[u.tree.flat_index(x.parent)] + m * low) / (m + 1)))


def op_binary(u: TreeFunction, x: Vertex) -> float:
    """min over unordered successor pairs of the pair average."""
    return float(_pair_term(u, x)[0])


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------

@dataclass
class ConvexityCheck:
    """Outcome of a convexity predicate: `ok`, the number of interior
    vertices `checked`, and `violations`, the flat indices of the violating
    vertices in increasing flat order."""

    ok: bool
    checked: int
    skipped: None = None  # always None: no check is skipped; perfbench's tracer reads it
    violations: list[int] = field(default_factory=list)


def _check_input(u: TreeFunction, tol: float) -> None:
    # with a nan value or tol every `u > bound + tol` is False, so every check
    # would pass; a negative tol would flag exact equalities
    u.validate()
    if isinstance(tol, bool) or not (isinstance(tol, Real) and 0 <= tol < np.inf):
        raise ValueError(f"tol must be finite and non-negative, got {tol!r}")


def _operator_check(u: TreeFunction, variant: str, tol: float,
                    envelope: bool = False) -> ConvexityCheck:
    """Flag u > operator + tol, level by level from the leaves.  With
    `envelope` the operator reads the obstacle envelope of u instead of u,
    each level written back before the level above reads it."""
    tree = u.tree
    values = u.values.copy() if envelope else u.values
    flat = []
    for sl, op in operator_levels(tree, values, variant, None, u.values if envelope else None):
        flat[:0] = (sl.start + np.flatnonzero(u.values[sl] > op + tol)).tolist()
        if envelope:
            values[sl] = op
    return ConvexityCheck(ok=not flat, checked=tree.interior_count, violations=flat)


def is_convex_operator(u: TreeFunction, tol: float = 1e-9) -> ConvexityCheck:
    """u(x) <= op_convex(u, x) + tol at every interior vertex (the root is
    checked against the successor-pair term only)."""
    _check_input(u, tol)
    return _operator_check(u, "convex", tol)


def is_convex_segment(u: TreeFunction, tol: float = 1e-9) -> ConvexityCheck:
    """u(z) <= the distance-weighted interpolation of u(x) and u(y), plus
    tol, for every z strictly inside a minimal path [x, y].

    With s(x) = (u(x) - u(z) + tol) / d(x, z), the inequality holds exactly
    when s(x) + s(y) >= 0, and the pairs (x, y) around z are those in
    different components of the tree minus z: the subtrees of z's children
    and, off the root, the rest of the tree.  So z violates exactly when its
    two least component minima of s sum below 0.  Within a component d(x, z)
    depends only on x's level, and the ancestor where the path turns, so
    each minimum is taken over per-level minima of u, built from the leaves
    up.  Distances are scaled by m^depth to integers: a level-j edge has
    length m^(depth-j), and a level-l vertex lies cum[l] below the root."""
    _check_input(u, tol)
    tree, m, depth = u.tree, u.tree.m, u.tree.depth
    cum = list(accumulate((m ** (depth - j) for j in range(1, depth + 1)), initial=0))
    level = [u.values[tree.level_slice(k)] for k in range(depth + 1)]
    # per interior level: each vertex's least and second least child
    # component minima; the second is lowered by the parent component's terms
    # as the ancestors' passes come, and least + min(second, parent) is the
    # sum of the two least component minima
    least, second = [None] * depth, [None] * depth
    below = level[depth][None]  # row i: least u i levels below each level-w vertex
    for w in range(depth, 0, -1):
        if w < depth:
            below = np.vstack((level[w], below.reshape(len(below), -1, m).min(axis=2)))
        k = w - 1  # z at level k: its child components
        near = np.full((tree.level_size(k), m), np.inf)
        for lv, row in enumerate(below, start=w):
            s = row.reshape(-1, m) - level[k][:, None]
            s += tol
            s /= cum[lv] - cum[k]
            np.minimum(near, s, out=near)
        near.partition(1, axis=1)
        least[k], second[k] = near[:, 0], near[:, 1].copy()
        if w == depth:
            continue
        # z below level w, the path turning at its level-(w-1) ancestor a: x
        # is a itself, or lies below one of the other children of a
        rows = below.reshape(len(below), -1, m)
        two = np.partition(rows, 1, axis=2)
        others = np.where(rows > two[..., :1], two[..., :1], two[..., 1:2])
        others = np.vstack((np.repeat(level[w - 1], m), others.reshape(len(below), -1)))
        for kz in range(w, depth):
            uz = level[kz].reshape(tree.level_size(w), -1)
            far = second[kz].reshape(uz.shape)
            for lv, row in enumerate(others, start=w - 1):
                s = row[:, None] - uz
                s += tol
                s /= cum[kz] + cum[lv] - 2 * cum[w - 1]
                np.minimum(far, s, out=far)
    bad = np.flatnonzero(np.concatenate([a + b < 0 for a, b in zip(least, second)]))
    return ConvexityCheck(ok=not bad.size, checked=tree.interior_count, violations=bad.tolist())


def is_binary_convex(u: TreeFunction, tol: float = 1e-9, mode: str = "operator") -> ConvexityCheck:
    """Binary convexity either via the one-step pair-min inequality at every
    interior vertex ("operator") or against the least endpoint average of
    the finite binary subtrees rooted there, down to the leaves
    ("subtrees").  That average is the pair minimum of the binary obstacle
    envelope of u, and fl((a + b) / 2) is monotone in a and b, so one pass
    gives it bit for bit."""
    _check_input(u, tol)
    if mode not in ("operator", "subtrees"):
        raise ValueError(f"mode must be 'operator' or 'subtrees', got {mode!r}")
    return _operator_check(u, "binary", tol, envelope=mode == "subtrees")
