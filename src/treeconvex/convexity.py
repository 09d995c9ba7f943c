"""Convexity operators, predicates, eigenvalue analogues, and reference solutions.

Two routes to every convexity notion are kept deliberately separate:

* operator form - the one-step min inequality at each vertex, evaluated
  directly from successor (and predecessor) values;
* definitional form - brute force over the defining objects (minimal-path
  segments, or finite binary subtrees with their endpoint weights).

The brute-force predicates are quadratic or worse and refuse inputs above a
fixed desk-scale budget instead of silently running forever.  Their
constraint arrays are built in closed form with NumPy; `tests/oracles.py`
rebuilds them object by object, with exact distances, as the test reference.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np

from ._kernels import apply_operator, full_laplacian_weights
from .functions import TreeFunction
from .tree import TruncatedTree, Vertex

# Measured on a 2-vCPU x86 VM with NumPy 2.4.  A segment constraint stores
# 40 B (three int64 indices, two float64 weights) and its build peaks at about
# 125 B; at the edge, m=2 depth 8 (511 vertices), 1,448,703 constraints take
# 58 MB and build in 0.15 s.  A subtree row stores an int64 root plus 5 B per
# endpoint column (int32 index, int8 exponent), and the build peaks at that;
# the widest admitted rows are m=2 depth 5 with 32 columns: 459,829 rows of
# 168 B, 77 MB, built in 0.04 s.
SEGMENT_VERTEX_BUDGET = 512
SUBTREE_ENUMERATION_BUDGET = 1_000_000
_CHUNK_ENTRIES = 1 << 20  # endpoints gathered at a time by the subtree check


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
    `skipped` then carries the reason.  The violating vertices are kept as
    flat indices of `_tree`, in the order found; `violations` builds them.
    """

    ok: bool | None
    checked: int
    skipped: str | None = None
    _tree: TruncatedTree | None = field(default=None, repr=False)
    _flat: list[int] = field(default_factory=list)

    @property
    def violations(self) -> list[Vertex]:
        return [self._tree.vertex_at(i) for i in self._flat]


def _verdict(tree: TruncatedTree, flat: list[int], checked: int) -> ConvexityCheck:
    return ConvexityCheck(ok=not flat, checked=checked, _tree=tree, _flat=flat)


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
    return _verdict(tree, bad.tolist(), tree.interior_count)


def is_convex_operator(u: TreeFunction, tol: float = 1e-9) -> ConvexityCheck:
    """u(x) <= op_convex(u, x) + tol at every interior vertex (the root is
    checked against the successor-pair term only)."""
    _check_tol(tol)
    return _operator_check(u, "convex", tol)


@lru_cache(maxsize=1)
def _segment_constraints(tree: TruncatedTree):
    """All interpolation constraints u(z) <= wx*u(x) + wy*u(y) for z strictly
    inside a minimal path [x, y], as flat-index/weight arrays: pairs x < y in
    flat order, then z in path order from x.  Only the last tree's arrays are
    cached (`maxsize=1`).

    Distances are scaled by m^L to integers: a level-j edge has length
    m^(L-j), and a vertex at level l lies cum[l] = sum_{j<=l} m^(L-j) below
    the root.  Every distance is an integer below 2^53 under the budget, so
    each weight is one correctly rounded division, as float(Fraction) is."""
    m, depth = tree.m, tree.depth
    pw = m ** np.arange(depth + 1, dtype=np.int64)
    cum = np.concatenate(([0], np.cumsum(pw[::-1][1:])))
    off = np.concatenate(([0], np.cumsum(pw)))
    level = np.repeat(np.arange(depth + 1), pw)
    index = np.arange(tree.vertex_count) - off[level]
    a, b = np.triu_indices(tree.vertex_count, 1)
    la, lb, ia, ib = level[a], level[b], index[a], index[b]
    # common-ancestor level: the number of levels l >= 1 whose ancestors
    # agree (a < b in flat order, so la <= lb)
    lw = np.zeros_like(a)
    for lv in range(1, depth + 1):
        lw += (la >= lv) & (ia // pw[np.maximum(la - lv, 0)] == ib // pw[np.maximum(lb - lv, 0)])
    inner = la + lb - 2 * lw - 1  # path vertices strictly between x and y
    keep = inner > 0
    a, b, la, lb, ia, ib, lw, inner = (v[keep] for v in (a, b, la, lb, ia, ib, lw, inner))
    pair = np.repeat(np.arange(a.size), inner)
    t = np.arange(pair.size) - np.repeat(np.cumsum(inner) - inner, inner) + 1
    la, lb, ia, ib, lw = la[pair], lb[pair], ia[pair], ib[pair], lw[pair]
    up = t <= la - lw  # z on the way up from x, else on the way down to y
    lz = np.where(up, la - t, 2 * lw + t - la)
    iz = off[lz] + np.where(up, ia, ib) // pw[np.where(up, la, lb) - lz]
    dxy = cum[la] + cum[lb] - 2 * cum[lw]
    dxz = np.where(up, cum[la] - cum[lz], cum[la] + cum[lz] - 2 * cum[lw])
    return iz, a[pair], b[pair], (dxy - dxz) / dxy, dxz / dxy


def is_convex_segment(u: TreeFunction, tol: float = 1e-9) -> ConvexityCheck:
    """Brute force over all vertex triples x, y, z with z inside the minimal
    path [x, y]: checks the distance-weighted interpolation inequality."""
    _check_tol(tol)
    tree = u.tree
    if tree.vertex_count > SEGMENT_VERTEX_BUDGET:
        return ConvexityCheck(
            ok=None, checked=0,
            skipped=f"budget: {tree.vertex_count} vertices exceed "
                    f"{SEGMENT_VERTEX_BUDGET} for the segment brute force")
    iz, ix, iy, wx, wy = _segment_constraints(tree)
    vals = u.values
    bad = vals[iz] > wx * vals[ix] + wy * vals[iy] + tol
    return _verdict(tree, list(dict.fromkeys(iz[bad].tolist())), len(iz))


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


def _shape_count(m: int, rel: int, cap: int | None = None) -> int:
    """Number of binary shapes hanging at one vertex with `rel` levels below
    it: ways(r) = 1 + C(m,2) * ways(r-1)^2, ways(0) = 1; at most `cap`."""
    pairs = m * (m - 1) // 2
    c = 1
    for _ in range(rel):
        c = 1 + pairs * c * c
        if cap is not None and c >= cap:
            return cap
    return c


def count_binary_subtrees(m: int, max_rel_depth: int) -> int:
    """Number of binary subtrees rooted at one vertex with endpoints at
    relative depth <= max_rel_depth."""
    return _subtree_count(m, max_rel_depth, None)


def _subtree_count(m: int, max_rel_depth: int, cap: int | None) -> int:
    """`count_binary_subtrees`, or `cap` when that is smaller.  Each step of
    the recursion only grows, so stopping at the cap gives the same minimum
    without squaring integers whose size doubles per level."""
    if max_rel_depth < 1:
        return 0
    pairs = m * (m - 1) // 2
    w = _shape_count(m, max_rel_depth - 1, cap)
    return pairs * w * w if cap is None else min(pairs * w * w, cap)


def _count_cap() -> int | None:
    """The bound at which a count only decides a budget skip: past the
    budget, and too long for `str` (None when Python sets no such limit)."""
    digits = sys.get_int_max_str_digits()
    return max(10**digits, SUBTREE_ENUMERATION_BUDGET + 1) if digits else None


def _count_text(n: int) -> str:
    """`n` in decimal; from m=2 depth 15 on, a subtree count has more digits
    than `str` converts (`sys.get_int_max_str_digits()`), so a bound stands in."""
    try:
        return str(n)
    except ValueError:
        return f"at least 10^{sys.get_int_max_str_digits()}"


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
    total = _subtree_count(tree.m, max_rel_depth, _count_cap())
    if total > SUBTREE_ENUMERATION_BUDGET:
        raise ValueError(
            f"budget: {_count_text(total)} binary subtrees at {x} "
            f"exceed {SUBTREE_ENUMERATION_BUDGET}")
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


def _subtree_row_count(tree: TruncatedTree) -> int:
    """Rows of `_subtree_constraint_arrays`, in closed form, before any build;
    at most `_count_cap()`, which any count that would be built stays below."""
    cap = _count_cap()
    total = sum(tree.level_size(lv) * _subtree_count(tree.m, tree.depth - lv, cap)
                for lv in range(tree.depth))
    return total if cap is None else min(total, cap)


def _write_subtrees(m: int, hanging: tuple[np.ndarray, np.ndarray], scale_of: np.ndarray,
                    rel: np.ndarray, flat: np.ndarray) -> None:
    """Write the binary subtrees rooted at one vertex into the padded rows
    `rel` (endpoint level below the root; -1 pads) and `flat` (endpoint flat
    index in the subtree of the root taken as a tree of its own), in the
    order of `enumerate_binary_subtrees`.  `hanging` holds the same arrays
    for the shapes hanging at one child: the child alone, then its subtrees;
    `scale_of[k]` is m^k, and `scale_of[-1]` is 0."""
    h_rel, h_flat = hanging
    count, width = h_rel.shape
    lengths = (h_rel >= 0).sum(axis=1)
    scale = scale_of[h_rel]
    # seen from the parent, a hanging shape is one level deeper, and the
    # subtree of child c starts at relative flat index 1 + c
    deeper = np.where(h_rel >= 0, h_rel + 1, -1).astype(np.int8)
    row = 0
    for i, j in combinations(range(m), 2):
        left, right = (i + 1) * scale + h_flat, (j + 1) * scale + h_flat
        for a in range(count):
            rows = slice(row, row + count)
            rel[rows, :width] = deeper[a]
            rel[rows, lengths[a] : lengths[a] + width] = deeper
            flat[rows, :width] = left[a]
            flat[rows, lengths[a] : lengths[a] + width] = right
            row += count


@lru_cache(maxsize=1)
def _subtree_constraint_arrays(tree: TruncatedTree):
    """Padded (roots, endpoint flat indices, weight exponents) over every
    interior vertex, one row per binary subtree in the order of
    `enumerate_binary_subtrees`; an endpoint at k levels below the root has
    weight 2^-k, and padding has endpoint 0 and exponent -1.  Only the last
    tree's arrays are cached (`maxsize=1`).

    The shapes below a vertex depend only on the relative depth, so each is
    built once on relative flat indices r and placed under a vertex with
    flat index f at f * m^k + r (offsets satisfy off(l+k) = m^k off(l) + off(k))."""
    m, depth = tree.m, tree.depth
    total = _subtree_row_count(tree)
    roots = np.empty(total, dtype=np.int64)
    flat = np.zeros((total, 2**depth), dtype=np.int32)  # int32: the budget bounds the tree
    rel = np.full((total, 2**depth), -1, dtype=np.int8)
    scale_of = np.append(m ** np.arange(depth + 1), 0).astype(np.int32)  # [-1] pads
    hanging = [(np.zeros((1, 1), np.int8), np.zeros((1, 1), np.int32))]
    for r in range(1, depth):
        count = 1 + count_binary_subtrees(m, r)
        h_rel = np.full((count, 2**r), -1, dtype=np.int8)
        h_flat = np.zeros((count, 2**r), dtype=np.int32)
        h_rel[0, 0] = 0
        _write_subtrees(m, hanging[-1], scale_of, h_rel[1:], h_flat[1:])
        hanging.append((h_rel, h_flat))
    start = 0
    for level in range(depth):
        r = depth - level
        n, count = tree.level_size(level), count_binary_subtrees(m, r)
        block = slice(start, start + n * count)
        start += n * count
        vertices = np.arange(tree.level_offset(level), tree.level_offset(level) + n, dtype=np.int32)
        roots[block] = np.repeat(vertices, count)
        b_rel = rel[block].reshape(n, count, -1)[:, :, : 2**r]
        b_flat = flat[block].reshape(n, count, -1)[:, :, : 2**r]
        _write_subtrees(m, hanging[r - 1], scale_of, b_rel[0], b_flat[0])
        if level:
            scale = scale_of[b_rel[0]]
            b_rel[1:] = b_rel[0]
            np.multiply(vertices[1:, None, None], scale, out=b_flat[1:])
            b_flat[1:] += b_flat[0]
            b_flat[0] += vertices[0] * scale
    return roots, flat, rel


def is_binary_convex(u: TreeFunction, tol: float = 1e-9, mode: str = "operator") -> ConvexityCheck:
    """Binary convexity either via the one-step pair-min inequality at every
    interior vertex ("operator") or by brute force over all finite binary
    subtrees, down to the leaves ("subtrees")."""
    _check_tol(tol)
    if mode == "operator":
        return _operator_check(u, "binary", tol)
    if mode != "subtrees":
        raise ValueError(f"mode must be 'operator' or 'subtrees', got {mode!r}")
    tree = u.tree
    total = _subtree_row_count(tree)
    if total > SUBTREE_ENUMERATION_BUDGET:
        return ConvexityCheck(
            ok=None, checked=0,
            skipped=f"budget: {_count_text(total)} binary subtrees "
                    f"exceed {SUBTREE_ENUMERATION_BUDGET}")
    roots, endpoints, exponents = _subtree_constraint_arrays(tree)
    weight_of = np.append(np.ldexp(1.0, -np.arange(tree.depth + 1)), 0.0)  # [-1] pads
    vals = u.values
    bad = np.empty(total, dtype=bool)
    step = _CHUNK_ENTRIES // endpoints.shape[1]
    for lo in range(0, total, step):
        rows = slice(lo, lo + step)
        # each row is summed over the full padded width, so the averages do
        # not depend on the chunking, bit for bit
        averages = (weight_of[exponents[rows]] * vals[endpoints[rows]]).sum(axis=1)
        bad[rows] = vals[roots[rows]] > averages + tol
    return _verdict(tree, list(dict.fromkeys(roots[bad].tolist())), total)


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
