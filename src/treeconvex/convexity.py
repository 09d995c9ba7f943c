"""Convexity operators, predicates, eigenvalue analogues, and reference solutions.

Two routes to every convexity notion are kept deliberately separate:

* operator form - the one-step min inequality at each vertex, evaluated
  directly from successor (and predecessor) values;
* definitional form - brute force over the defining objects (minimal-path
  segments, or finite binary subtrees with their endpoint weights).

The brute-force predicates are quadratic or worse and refuse inputs above a
fixed desk-scale budget instead of silently running forever.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np

from ._kernels import apply_operator, full_laplacian_weights
from .functions import TreeFunction
from .tree import TruncatedTree, Vertex, distance, minimal_path

SEGMENT_VERTEX_BUDGET = 512
SUBTREE_ENUMERATION_BUDGET = 1_000_000


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


def op_kconvex(u: TreeFunction, x: Vertex, k: int) -> float:
    """min over k-element successor subsets of the subset average."""
    m = u.tree.m
    if not 2 <= k <= m:
        raise ValueError(f"k must be in [2, m={m}], got {k}")
    s = _successor_values(u, x)
    part = np.partition(s, k - 1)
    return float(part[:k].sum() / k)


# ---------------------------------------------------------------------------
# eigenvalue analogues and Laplacians
# ---------------------------------------------------------------------------

def eigenvalues_convex(u: TreeFunction, x: Vertex) -> list[float]:
    """All second-difference terms at x: the C(m,2) successor-pair terms and
    the m predecessor-branch terms.  Undefined at the root."""
    if x.is_root:
        raise ValueError("predecessor family undefined at the root")
    m = u.tree.m
    s = _successor_values(u, x)
    ux = u.value_at(x)
    up = _parent_value(u, x)
    pairs = [(s[i] + s[j] - 2 * ux) / 2.0 for i, j in combinations(range(m), 2)]
    branches = [(up + m * s[i] - (m + 1) * ux) / (m + 1) for i in range(m)]
    return [float(v) for v in pairs + branches]


def eigenvalues_binary(u: TreeFunction, x: Vertex) -> list[float]:
    m = u.tree.m
    s = _successor_values(u, x)
    ux = u.value_at(x)
    return [float(0.5 * s[i] + 0.5 * s[j] - ux) for i, j in combinations(range(m), 2)]


def eigenvalues_k(u: TreeFunction, x: Vertex, k: int) -> list[float]:
    """The C(m,k) k-subset-average terms (1/k) * sum u(x,j_i) - u(x)."""
    m = u.tree.m
    if not 2 <= k <= m:
        raise ValueError(f"k must be in [2, m={m}], got {k}")
    s = _successor_values(u, x)
    ux = u.value_at(x)
    return [float(sum(s[i] for i in subset) / k - ux) for subset in combinations(range(m), k)]


def laplacian_residual(u: TreeFunction, x: Vertex) -> float:
    """Defect of the full-tree mean-value identity
    u(x) = 2/(m+1)^2 * u(parent) + (m^2+2m-1)/(m+1)^2 * successor average."""
    if x.is_root:
        raise ValueError("full-tree Laplacian undefined at the root (no predecessor)")
    m = u.tree.m
    s = _successor_values(u, x)
    c_pred, c_succ = full_laplacian_weights(m)
    return float(c_pred * _parent_value(u, x) + c_succ * s.mean() - u.value_at(x))


def arborescence_laplacian(u: TreeFunction, x: Vertex) -> float:
    """Successor average minus the value at x."""
    s = _successor_values(u, x)
    return float(s.mean() - u.value_at(x))


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------

@dataclass
class ConvexityCheck:
    """Outcome of a convexity predicate.

    `ok` is None when the check was skipped (brute-force budget exceeded);
    `skipped` then carries the reason.
    """

    ok: bool | None
    violations: list[Vertex]
    checked: int
    skipped: str | None = None


def _check_tol(tol: float) -> None:
    # with a nan tol every `u > bound + tol` is False, so every check would
    # pass; a negative tol would flag exact equalities
    if not (np.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and non-negative, got {tol}")


def _operator_check(u: TreeFunction, variant: str, tol: float, k: int | None = None) -> ConvexityCheck:
    tree = u.tree
    op = apply_operator(tree, u.values, variant, k)
    interior = tree.interior_slice
    bad = np.nonzero(u.values[interior] > op[interior] + tol)[0]
    violations = [tree.vertex_at(int(i)) for i in bad]
    return ConvexityCheck(ok=len(violations) == 0, violations=violations,
                          checked=tree.interior_count)


def is_convex_operator(u: TreeFunction, tol: float = 1e-9) -> ConvexityCheck:
    """u(x) <= op_convex(u, x) + tol at every interior vertex (the root is
    checked against the successor-pair term only)."""
    _check_tol(tol)
    return _operator_check(u, "convex", tol)


@lru_cache(maxsize=16)
def _segment_constraints(tree: TruncatedTree):
    """All interpolation constraints u(z) <= wx*u(x) + wy*u(y) for z strictly
    inside a minimal path, as flat-index/weight arrays."""
    verts = list(tree.vertices())
    flat = {v: i for i, v in enumerate(verts)}
    iz: list[int] = []
    ix: list[int] = []
    iy: list[int] = []
    wx: list[float] = []
    wy: list[float] = []
    for a in range(len(verts)):
        for b in range(a + 1, len(verts)):
            x, y = verts[a], verts[b]
            path = minimal_path(x, y)
            if len(path) <= 2:
                continue
            dxy = distance(x, y)
            dxz = Fraction(0)
            for prev, z in zip(path, path[1:-1]):
                dxz += Fraction(1, tree.m ** max(prev.level, z.level))
                iz.append(flat[z])
                ix.append(flat[x])
                iy.append(flat[y])
                wx.append(float((dxy - dxz) / dxy))
                wy.append(float(dxz / dxy))
    return (np.array(iz), np.array(ix), np.array(iy), np.array(wx), np.array(wy))


def is_convex_segment(u: TreeFunction, tol: float = 1e-9) -> ConvexityCheck:
    """Brute force over all vertex triples x, y, z with z inside the minimal
    path [x, y]: checks the distance-weighted interpolation inequality."""
    _check_tol(tol)
    tree = u.tree
    if tree.vertex_count > SEGMENT_VERTEX_BUDGET:
        return ConvexityCheck(
            ok=None, violations=[], checked=0,
            skipped=f"budget: {tree.vertex_count} vertices exceed "
                    f"{SEGMENT_VERTEX_BUDGET} for the segment brute force")
    iz, ix, iy, wx, wy = _segment_constraints(tree)
    vals = u.values
    bad = vals[iz] > wx * vals[ix] + wy * vals[iy] + tol
    seen: dict[int, None] = {}
    for i in iz[np.nonzero(bad)[0]]:
        seen.setdefault(int(i))
    violations = [tree.vertex_at(i) for i in seen]
    return ConvexityCheck(ok=len(violations) == 0, violations=violations, checked=len(iz))


# ---------------------------------------------------------------------------
# binary subtrees
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BinarySubtree:
    """A finite binary subtree: the root has exactly two member successors and
    every other member has zero or exactly two.  Endpoint weights halve with
    each level below the root and always sum to one."""

    root: Vertex
    members: tuple[Vertex, ...]
    endpoints: tuple[Vertex, ...]

    def endpoint_weights(self) -> list[Fraction]:
        return [Fraction(1, 2 ** (y.level - self.root.level)) for y in self.endpoints]

    def endpoint_average(self, u: TreeFunction) -> float:
        return float(sum(2.0 ** -(y.level - self.root.level) * u.value_at(y)
                         for y in self.endpoints))


def _shape_count(m: int, rel: int) -> int:
    """Number of binary shapes hanging at one vertex with `rel` levels below
    it: ways(r) = 1 + C(m,2) * ways(r-1)^2, ways(0) = 1."""
    pairs = m * (m - 1) // 2
    c = 1
    for _ in range(rel):
        c = 1 + pairs * c * c
    return c


def count_binary_subtrees(m: int, max_rel_depth: int) -> int:
    """Number of binary subtrees rooted at one vertex with endpoints at
    relative depth <= max_rel_depth."""
    if max_rel_depth < 1:
        return 0
    pairs = m * (m - 1) // 2
    w = _shape_count(m, max_rel_depth - 1)
    return pairs * w * w


def _hanging_shapes(v: Vertex, rel: int) -> list[tuple[tuple[Vertex, ...], tuple[Vertex, ...]]]:
    shapes: list[tuple[tuple[Vertex, ...], tuple[Vertex, ...]]] = [((v,), (v,))]
    if rel >= 1:
        kids = v.children()
        for i, j in combinations(range(v.m), 2):
            left = _hanging_shapes(kids[i], rel - 1)
            right = _hanging_shapes(kids[j], rel - 1)
            for mem_l, end_l in left:
                for mem_r, end_r in right:
                    shapes.append(((v,) + mem_l + mem_r, end_l + end_r))
    return shapes


def enumerate_binary_subtrees(tree: TruncatedTree, x: Vertex, max_rel_depth: int) -> list[BinarySubtree]:
    """All binary subtrees rooted at x whose endpoints stay within
    max_rel_depth levels of x (and inside the truncated tree)."""
    tree._check_member(x)
    if max_rel_depth < 0:
        raise ValueError(f"max_rel_depth must be >= 0, got {max_rel_depth}")
    if x.level + max_rel_depth > tree.depth:
        raise ValueError(
            f"vertex {x} at level {x.level} plus relative depth {max_rel_depth} "
            f"exceeds the depth-{tree.depth} truncation")
    total = count_binary_subtrees(tree.m, max_rel_depth)
    if total > SUBTREE_ENUMERATION_BUDGET:
        raise ValueError(
            f"budget: {total} binary subtrees at {x} exceed {SUBTREE_ENUMERATION_BUDGET}")
    if max_rel_depth < 1:
        return []
    kids = x.children()
    out: list[BinarySubtree] = []
    for i, j in combinations(range(tree.m), 2):
        left = _hanging_shapes(kids[i], max_rel_depth - 1)
        right = _hanging_shapes(kids[j], max_rel_depth - 1)
        for mem_l, end_l in left:
            for mem_r, end_r in right:
                out.append(BinarySubtree(x, (x,) + mem_l + mem_r, end_l + end_r))
    return out


def _flat_shapes(tree: TruncatedTree, flat: int, level: int, rel: int):
    """(endpoint flat indices, weight exponents) of shapes hanging at a vertex,
    on flat indices only; weights are 2^-exponent relative to the shape root."""
    shapes = [((flat,), (0,))]
    if rel >= 1:
        m = tree.m
        child0 = tree.level_offset(level + 1) + (flat - tree.level_offset(level)) * m
        for i, j in combinations(range(m), 2):
            left = _flat_shapes(tree, child0 + i, level + 1, rel - 1)
            right = _flat_shapes(tree, child0 + j, level + 1, rel - 1)
            for idx_l, ex_l in left:
                for idx_r, ex_r in right:
                    shapes.append((idx_l + idx_r, tuple(e + 1 for e in ex_l + ex_r)))
    return shapes


@lru_cache(maxsize=16)
def _subtree_constraint_arrays(tree: TruncatedTree, max_rel_depth: int | None):
    """Padded (roots, endpoint indices, weights) over every interior vertex,
    one row per enumerated binary subtree.  Padding entries carry weight 0."""
    total = 0
    for level in range(tree.depth):
        rel = tree.depth - level
        if max_rel_depth is not None:
            rel = min(rel, max_rel_depth)
        total += tree.level_size(level) * count_binary_subtrees(tree.m, rel)
    if total > SUBTREE_ENUMERATION_BUDGET:
        raise ValueError(
            f"budget: {total} binary subtrees exceed {SUBTREE_ENUMERATION_BUDGET}")

    roots: list[int] = []
    endpoint_rows: list[tuple[int, ...]] = []
    weight_rows: list[tuple[float, ...]] = []
    for level in range(tree.depth):
        rel = tree.depth - level
        if max_rel_depth is not None:
            rel = min(rel, max_rel_depth)
        if rel < 1:
            continue
        m = tree.m
        for idx in range(tree.level_size(level)):
            flat = tree.level_offset(level) + idx
            child0 = tree.level_offset(level + 1) + idx * m
            for i, j in combinations(range(m), 2):
                left = _flat_shapes(tree, child0 + i, level + 1, rel - 1)
                right = _flat_shapes(tree, child0 + j, level + 1, rel - 1)
                for idx_l, ex_l in left:
                    for idx_r, ex_r in right:
                        roots.append(flat)
                        endpoint_rows.append(idx_l + idx_r)
                        weight_rows.append(tuple(2.0 ** -(e + 1) for e in ex_l + ex_r))

    width = max((len(r) for r in endpoint_rows), default=0)
    endpoints = np.zeros((len(endpoint_rows), width), dtype=np.int64)
    weights = np.zeros((len(endpoint_rows), width))
    for r, (idxs, ws) in enumerate(zip(endpoint_rows, weight_rows)):
        endpoints[r, : len(idxs)] = idxs
        weights[r, : len(ws)] = ws
    return np.array(roots, dtype=np.int64), endpoints, weights


def is_binary_convex(
    u: TreeFunction,
    tol: float = 1e-9,
    mode: str = "operator",
    max_rel_depth: int | None = None,
) -> ConvexityCheck:
    """Binary convexity either via the one-step pair-min inequality at every
    interior vertex ("operator") or by brute force over all finite binary
    subtrees up to max_rel_depth ("subtrees"; None means down to the leaves)."""
    _check_tol(tol)
    if mode == "operator":
        return _operator_check(u, "binary", tol)
    if mode != "subtrees":
        raise ValueError(f"mode must be 'operator' or 'subtrees', got {mode!r}")
    tree = u.tree
    try:
        roots, endpoints, weights = _subtree_constraint_arrays(tree, max_rel_depth)
    except ValueError as exc:
        if "budget" in str(exc):
            return ConvexityCheck(ok=None, violations=[], checked=0, skipped=str(exc))
        raise
    vals = u.values
    averages = (weights * vals[endpoints]).sum(axis=1)
    bad = vals[roots] > averages + tol
    seen: dict[int, None] = {}
    for i in roots[np.nonzero(bad)[0]]:
        seen.setdefault(int(i))
    violations = [tree.vertex_at(i) for i in seen]
    return ConvexityCheck(ok=len(violations) == 0, violations=violations, checked=len(roots))


# ---------------------------------------------------------------------------
# closed-form references
# ---------------------------------------------------------------------------

def _subtree_level_slice(tree: TruncatedTree, x0: Vertex, level: int) -> slice:
    width = tree.m ** (level - x0.level)
    start = tree.level_offset(level) + x0.index * width
    return slice(start, start + width)


def reference_convex_indicator(tree: TruncatedTree, x0: Vertex) -> TreeFunction:
    """The closed-form convex function attached to a non-root vertex x0:
    ((m-1)/m) * sum_{i=0}^{|x|-|x0|} m^-i on the subtree below x0, else 0.
    Values are computed exactly and rounded to float once.

    For m >= 3 it satisfies u = op_convex(u) at every interior vertex.  For
    m = 2 it satisfies u <= op_convex(u) everywhere, with equality except
    at the root when |x0| = 1, where op_convex(u) - u = (m-1)/(2m) = 1/4.
    """
    tree._check_member(x0)
    if x0.is_root:
        raise ValueError("the reference indicator requires a non-root vertex")
    m = tree.m
    values = np.zeros(tree.vertex_count)
    for level in range(x0.level, tree.depth + 1):
        j = level - x0.level
        s_j = Fraction(m - 1, m) * sum(Fraction(1, m**i) for i in range(j + 1))
        values[_subtree_level_slice(tree, x0, level)] = float(s_j)
    return TreeFunction(tree, values)


def reference_binary_indicator(tree: TruncatedTree, x0: Vertex) -> TreeFunction:
    """The 0/1 indicator of the subtree below a non-root vertex x0.

    For m >= 3 it satisfies u = op_binary(u) at every interior vertex.  For
    m = 2 it satisfies u <= op_binary(u) everywhere, with equality except
    at the parent of x0, where op_binary(u) - u = 1/2.
    """
    tree._check_member(x0)
    if x0.is_root:
        raise ValueError("the reference indicator requires a non-root vertex")
    values = np.zeros(tree.vertex_count)
    for level in range(x0.level, tree.depth + 1):
        values[_subtree_level_slice(tree, x0, level)] = 1.0
    return TreeFunction(tree, values)
