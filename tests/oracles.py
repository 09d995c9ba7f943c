"""Independent routes to the brute-force constraint arrays of
`treeconvex.convexity`, to the greatest function that satisfies them, and to
the function-CSV reader of `treeconvex.cli`, for tests only.

Vertices are plain digit tuples, enumerated level by level with
`itertools.product`; nothing here uses the library's geometry.  The minimal
path between two vertices runs through their common digit prefix, an edge
down to level k has the exact length `Fraction(1, m**k)`, and a binary or
k-ary subtree is the tuple of its endpoints.  The rows come in the library's
order: the segment arrays are the layout `is_convex_segment` evaluates, so
the tests demand bitwise equality there; the library checks subtrees by
per-level averages, which the tests hold to these rows within a rounding
bound.
The pointwise operators, second-difference families and Laplacians read one
vertex's neighbours by digits, for comparison with the library's level
kernels, and the closed-form reference functions are built here exactly.
The reference engine is here too: `operator` evaluates every variant level
by level, taking the smallest successors from a sort and the Laplacian
weights from `laplacian_weights`, and `jacobi` descends from the sup of the
leaf data or from the obstacle, each sweep reading the previous one's
values.  Neither reads the library's kernels or solver.  `exact_one_pass`
solves the successor-only variants in `Fraction`, one pass from the leaves;
`exact_laplacian_full` solves the full Laplacian by one exact elimination,
and `exact_howard` the convex equation, with or without an obstacle, by
policy iteration on that elimination.
`read_function_csv` reads every file one `csv` row at a time.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from treeconvex import TreeFunction, TruncatedTree, Vertex


def digit_tuples(m: int, depth: int):
    """Every vertex down to level `depth` in flat order: level by level, and
    lexicographic within a level."""
    for level in range(depth + 1):
        yield from product(range(m), repeat=level)


def vertices(tree: TruncatedTree) -> list[Vertex]:
    """Every vertex of `tree` as a `Vertex`, in flat order."""
    return [Vertex(tree.m, d) for d in digit_tuples(tree.m, tree.depth)]


def common_prefix(x: tuple, y: tuple) -> tuple:
    """The digits of the deepest common ancestor of x and y."""
    n = 0
    while n < min(len(x), len(y)) and x[n] == y[n]:
        n += 1
    return x[:n]


def minimal_path(x: tuple, y: tuple) -> list[tuple]:
    """The self-avoiding path from x up to the common prefix, then down to y."""
    n = len(common_prefix(x, y))
    return [x[:k] for k in range(len(x), n, -1)] + [y[:k] for k in range(n, len(y) + 1)]


def edge_lengths(m: int, path: list[tuple]) -> list[Fraction]:
    """The exact length of each step of `path`: 1/m^k for an edge down to level k."""
    return [Fraction(1, m ** max(len(a), len(b))) for a, b in zip(path, path[1:])]


def distance(m: int, x: tuple, y: tuple) -> Fraction:
    """The exact length of the minimal path between x and y."""
    return sum(edge_lengths(m, minimal_path(x, y)), Fraction(0))


def segment_constraints(tree: TruncatedTree):
    """(iz, ix, iy, wx, wy): one row per vertex pair x < y in flat order and
    z strictly inside the minimal path [x, y], z in path order from x."""
    m = tree.m
    verts = list(digit_tuples(m, tree.depth))
    flat = {v: i for i, v in enumerate(verts)}
    rows = []
    for a, x in enumerate(verts):
        for b in range(a + 1, len(verts)):
            path = minimal_path(x, verts[b])
            steps = edge_lengths(m, path)
            dxy = sum(steps)
            dxz = Fraction(0)
            for step, z in zip(steps, path[1:-1]):
                dxz += step
                rows.append((flat[z], a, b, float((dxy - dxz) / dxy), float(dxz / dxy)))
    iz, ix, iy, wx, wy = zip(*rows)
    return (np.array(iz, dtype=np.int64), np.array(ix, dtype=np.int64),
            np.array(iy, dtype=np.int64), np.array(wx), np.array(wy))


ROW_BUDGET = 20_000  # subtree rows one `subtree_constraints` call may build


def subtree_count(m: int, rel: int, k: int = 2) -> int:
    """The number of k-ary subtrees of a vertex with `rel` levels below it,
    in closed form, or ROW_BUDGET + 1 if there are more than ROW_BUDGET.  A
    vertex r levels above the leaves carries ways(r) = 1 + C(m, k) *
    ways(r - 1)^k shapes, itself alone among them; ways grows doubly
    exponentially in r, so it is capped as it goes."""
    ways = 1
    for _ in range(rel):
        ways = min(1 + math.comb(m, k) * ways**k, ROW_BUDGET + 2)
    return ways - 1


def subtrees(m: int, root: tuple, rel: int, k: int = 2) -> list[tuple]:
    """The endpoint tuples of every k-ary subtree rooted at `root` with
    endpoints at most `rel` levels below it: the root with a k-subset of its
    successors, in lexicographic order, and a shape hanging at each, where a
    shape is a vertex alone or a k-ary subtree rooted there.  The endpoints
    below the first successor of the subset come first.  k = 2 gives the
    binary subtrees."""
    return _shapes(m, root, rel, k)[1:]


def _shapes(m: int, v: tuple, rel: int, k: int) -> list[tuple]:
    shapes = [(v,)]
    if rel:
        below = [_shapes(m, v + (c,), rel - 1, k) for c in range(m)]
        for subset in combinations(range(m), k):
            shapes += [sum(parts, ()) for parts in product(*(below[c] for c in subset))]
    return shapes


def subtree_constraints(tree: TruncatedTree, from_level: int = 0, k: int = 2):
    """(roots, endpoints, weights): one row per k-ary subtree of every
    interior vertex from level `from_level` on, in flat order, padded to the
    widest row with endpoint 0 and weight 0.  An endpoint j levels below the
    root weighs 1/k^j.  The row count is taken in closed form first, and more
    than `ROW_BUDGET` rows are refused before any is built."""
    m, depth = tree.m, tree.depth
    count = sum(m**level * subtree_count(m, depth - level, k)
                for level in range(from_level, depth))
    if count > ROW_BUDGET:
        raise ValueError(f"more than {ROW_BUDGET} subtree rows at m={m}, depth={depth}, "
                         f"k={k} from level {from_level}")
    flat = {v: i for i, v in enumerate(digit_tuples(m, depth))}
    roots, rows = [], []
    for x in digit_tuples(m, depth - 1):
        if len(x) < from_level:
            continue
        for ends in subtrees(m, x, depth - len(x), k):
            roots.append(flat[x])
            rows.append([(flat[y], 1 / k ** (len(y) - len(x))) for y in ends])
    width = max(map(len, rows), default=0)
    endpoints = np.zeros((len(rows), width), dtype=np.int64)
    weights = np.zeros((len(rows), width))
    for r, row in enumerate(rows):
        endpoints[r, : len(row)], weights[r, : len(row)] = zip(*row)
    return np.array(roots, dtype=np.int64), endpoints, weights


def definitional_envelope(arrays, start: np.ndarray) -> tuple[np.ndarray, int]:
    """The greatest function below `start` that satisfies every constraint of
    `arrays` (segment triples or subtree rows), and the number of sweeps.

    Each sweep sets u(z) = min(u(z), least right-hand side of the
    constraints with target z), all on the previous sweep's values, and the
    sweeps stop when one changes nothing.  Values never rise, so with an
    obstacle f as the start, u = min(u, f) holds throughout.  No constraint
    targets a leaf, so Dirichlet data start at their sup with the leaves
    set to the data."""
    order = np.argsort(arrays[0], kind="stable")
    target, *rest = (a[order] for a in arrays)
    if len(rest) == 4:
        ix, iy, wx, wy = rest

        def bound(u):
            return wx * u[ix] + wy * u[iy]
    else:
        endpoints, weights = rest

        def bound(u):
            return (weights * u[endpoints]).sum(axis=1)
    first = np.flatnonzero(np.r_[True, target[1:] != target[:-1]])
    z = target[first]
    u = np.array(start, dtype=np.float64)
    for sweeps in range(1, 10_001):
        lowered = np.minimum(u[z], np.minimum.reduceat(bound(u), first))
        if np.array_equal(lowered, u[z]):
            return u, sweeps
        u[z] = lowered
    raise RuntimeError("no fixed point after 10000 sweeps")


def segment_verdict(u: TreeFunction, arrays, tol: float) -> tuple[bool, int, list[int]]:
    """(ok, checked, violating flat indices in order found) of the segment
    inequality evaluated on oracle arrays."""
    iz, ix, iy, wx, wy = arrays
    vals = u.values
    bad = vals[iz] > wx * vals[ix] + wy * vals[iy] + tol
    flat = list(dict.fromkeys(iz[bad].tolist()))
    return not flat, len(iz), flat


def subtree_verdict(u: TreeFunction, arrays, tol: float) -> tuple[bool, int, list[int]]:
    """The same for the subtree inequality: value at the root against the
    weighted endpoint average."""
    roots, endpoints, weights = arrays
    vals = u.values
    bad = vals[roots] > (weights * vals[endpoints]).sum(axis=1) + tol
    flat = list(dict.fromkeys(roots[bad].tolist()))
    return not flat, len(roots), flat


def level_start(m: int, level: int) -> int:
    """The number of vertices above `level`, (m^level - 1)/(m - 1): where the
    level starts in `digit_tuples` order."""
    return (m**level - 1) // (m - 1)


def flat_index(m: int, digits: tuple) -> int:
    """The position of a vertex in `digit_tuples` order: the vertices above
    its level come first, then those before it in its level."""
    index = 0
    for d in digits:
        index = index * m + d
    return level_start(m, len(digits)) + index


def digit_value(u: TreeFunction, digits: tuple) -> float:
    return float(u.values[flat_index(u.tree.m, digits)])


def successor_values(u: TreeFunction, x: Vertex) -> list[float]:
    """u at the m successors of x, in digit order."""
    return [digit_value(u, x.digits + (c,)) for c in range(u.tree.m)]


def check_k(k: int, m: int) -> None:
    if not 2 <= k <= m:
        raise ValueError(f"k must be in [2, m={m}], got {k}")


def op_kconvex(u: TreeFunction, x: Vertex, k: int) -> float:
    """The least average of k successor values: the k smallest, summed from
    the smallest up."""
    s = successor_values(u, x)
    check_k(k, len(s))
    return sum(sorted(s)[:k]) / k


def op_binary(u: TreeFunction, x: Vertex) -> float:
    """The least successor-pair average, over every pair."""
    return min((a + b) / 2 for a, b in combinations(successor_values(u, x), 2))


def op_convex(u: TreeFunction, x: Vertex) -> float:
    """The least of the successor-pair averages and, off the root, of the m
    predecessor branches (u(parent) + m * u(y)) / (m + 1), y a successor;
    the pairs come first, so a tie keeps a pair's value."""
    m, s = u.tree.m, successor_values(u, x)
    terms = [(a + b) / 2 for a, b in combinations(s, 2)]
    if x.digits:
        up = digit_value(u, x.digits[:-1])
        terms += [(up + m * y) / (m + 1) for y in s]
    return min(terms)


def eigenvalues_convex(u: TreeFunction, x: Vertex) -> list[float]:
    """All second-difference terms at a non-root x: the C(m,2) successor-pair
    terms, then the m predecessor-branch terms."""
    m, s, ux = u.tree.m, successor_values(u, x), digit_value(u, x.digits)
    up = digit_value(u, x.parent.digits)
    return ([(a + b - 2 * ux) / 2 for a, b in combinations(s, 2)]
            + [(up + m * y - (m + 1) * ux) / (m + 1) for y in s])


def eigenvalues_binary(u: TreeFunction, x: Vertex) -> list[float]:
    """The C(m,2) successor-pair terms (u(y) + u(y')) / 2 - u(x)."""
    ux = digit_value(u, x.digits)
    return [0.5 * a + 0.5 * b - ux for a, b in combinations(successor_values(u, x), 2)]


def eigenvalues_k(u: TreeFunction, x: Vertex, k: int) -> list[float]:
    """The C(m,k) k-subset-average terms (1/k) * sum u(x,j_i) - u(x)."""
    s, ux = successor_values(u, x), digit_value(u, x.digits)
    check_k(k, len(s))
    return [sum(subset) / k - ux for subset in combinations(s, k)]


def laplacian_weights(m: int) -> tuple[float, float]:
    """The full-tree Laplacian's weights of the predecessor, 2/(m+1)^2, and of
    the successor average, (m^2+2m-1)/(m+1)^2."""
    return 2 / (m + 1) ** 2, (m * m + 2 * m - 1) / (m + 1) ** 2


def laplacian_residual(u: TreeFunction, x: Vertex) -> float:
    """Defect at a non-root x of the full-tree mean-value identity
    u(x) = c_pred * u(parent) + c_succ * successor average."""
    c_pred, c_succ = laplacian_weights(u.tree.m)
    s = successor_values(u, x)
    return (c_pred * digit_value(u, x.parent.digits) + c_succ * (sum(s) / len(s))
            - digit_value(u, x.digits))


def arborescence_laplacian(u: TreeFunction, x: Vertex) -> float:
    """Successor average minus the value at x."""
    return sum(successor_values(u, x)) / u.tree.m - digit_value(u, x.digits)


# Float rounding of a k-way or weighted average can overshoot the exact
# convex combination by an ulp: without an obstacle, the reference engine
# clips these updates against the previous iterate, so descent from the sup
# stays exact.
CLIPPED = ("kconvex", "laplacian_full", "laplacian_arborescence")


def level_operator(values: np.ndarray, m: int, level: int, variant: str,
                   k: int | None = None) -> np.ndarray:
    """The variant's operator at every vertex of interior `level`, in order,
    from the flat values of the whole tree.  The smallest successors come
    from a stable sort of each row; the successors of a Laplacian and the k
    smallest (from the smallest up) are summed left to right with `sum`, as
    the pointwise operators do.  At the root the convex minimum has no
    predecessor branch and the full Laplacian is the successor average."""
    n, start = m**level, level_start(m, level)
    succ = values[start + n: start + n + n * m].reshape(n, m)
    parent = np.repeat(values[start - n // m: start], m) if level else None
    if variant in ("laplacian_full", "laplacian_arborescence"):
        mean = sum(succ.T) / m
        if variant == "laplacian_arborescence" or parent is None:
            return mean
        c_pred, c_succ = laplacian_weights(m)
        return c_pred * parent + c_succ * mean
    head = np.sort(succ, axis=1, kind="stable")
    if variant == "kconvex":
        return sum(head.T[:k]) / k
    op = (head[:, 0] + head[:, 1]) / 2
    if variant == "convex" and parent is not None:
        op = np.minimum(op, (parent + m * head[:, 0]) / (m + 1))
    return op


def operator(tree: TruncatedTree, values: np.ndarray, variant: str, k: int | None = None,
             obstacle: np.ndarray | None = None) -> np.ndarray:
    """The variant's operator at every interior vertex of `values`, in flat
    order, each level evaluated by `level_operator`; with an obstacle, the
    smaller of the operator and the obstacle."""
    op = np.concatenate([level_operator(values, tree.m, level, variant, k)
                         for level in range(tree.depth)])
    return op if obstacle is None else np.minimum(op, obstacle[: len(op)])


@dataclass
class JacobiRun:
    """What the tests read of a solve, under the names of the library's
    `SolveReport`, and the coincidence mask of an obstacle problem."""

    solution: TreeFunction
    iterations: int
    final_residual: float
    converged: bool
    monotone: bool  # no sweep raised a value
    last_change: float
    coincidence_mask: np.ndarray | None


def jacobi(tree: TruncatedTree, variant: str, k: int | None, tol: float, max_iter: int,
           leaves=None, obstacle: np.ndarray | None = None) -> JacobiRun:
    """The monotone Jacobi descent to the largest solution: from the leaf data
    with the interior at their sup, or from the flat `obstacle` values, every
    sweep sets each interior value to the operator of the previous sweep's
    values (below the obstacle, if there is one).  The sweeps stop when one
    changes no value by more than tol and the defect is within it, when a
    change or the defect is not finite, or after max_iter sweeps.  Vertices
    within tol of the obstacle coincide with it."""
    inner = level_start(tree.m, tree.depth)
    if obstacle is None:
        values = np.empty(level_start(tree.m, tree.depth + 1))
        values[inner:] = leaves
        values[:inner] = np.max(leaves)
    else:
        values = np.array(obstacle, dtype=np.float64)
    interior = values[:inner]  # a view: writing it updates `values`
    clip = obstacle is None and variant in CLIPPED
    monotone, iterations = True, 0
    while True:
        new = operator(tree, values, variant, k, obstacle)
        if clip:
            np.minimum(new, interior, out=new)
        change = float(np.max(np.abs(new - interior)))  # NaN if any change is NaN
        monotone = monotone and bool(np.all(new <= interior))
        interior[:] = new
        iterations += 1
        stop = iterations == max_iter or not math.isfinite(change)
        if change <= tol or stop:
            defect = float(np.max(np.abs(interior - operator(tree, values, variant, k, obstacle))))
            if defect <= tol or stop or not math.isfinite(defect):
                break
    mask = None if obstacle is None else np.abs(values - obstacle) <= tol
    return JacobiRun(TreeFunction(tree, values), iterations, defect, defect <= tol, monotone,
                     change, mask)


def exact_one_pass(m: int, depth: int, variant: str, k: int | None = None, leaves=None,
                   obstacle=None) -> list[Fraction]:
    """The largest solution of a variant that reads only the successors
    (binary, kconvex, laplacian_arborescence) in exact arithmetic, in flat
    order: the leaves are the data (or the obstacle's leaves), and from the
    leaves to the root each interior value is the mean of its `take`
    smallest successors (2, k or m of them), below the obstacle if there is
    one.  Float data are converted exactly, so the result shares no rounding
    with a float solve."""
    take = {"binary": 2, "kconvex": k, "laplacian_arborescence": m}[variant]
    bound = None if obstacle is None else [Fraction(x) for x in obstacle]
    inner = level_start(m, depth)
    values = [None] * inner + [Fraction(x) for x in (leaves if bound is None else bound[inner:])]
    for level in reversed(range(depth)):
        start, n = level_start(m, level), m**level
        for i in range(n):
            succ = values[start + n + i * m: start + n + (i + 1) * m]
            op = sum(sorted(succ)[:take]) / take
            values[start + i] = op if bound is None else min(op, bound[start + i])
    return values


def exact_eliminate(m: int, depth: int, values: list[Fraction], row) -> list[Fraction]:
    """The solution, exact and in flat order, of the linear system u(x) =
    a u(parent) + sum_c w_c u(xc) + b at every interior vertex x, with the
    leaves of `values` fixed; `row(x)` gives (a, w, b) at flat index x, w
    the weights of the successors m x + 1, ..., m x + m, and a is 0 at the
    root.  From the leaves up, each vertex's equation with its successors'
    rows u(xc) = alpha_c u(x) + beta_c put in gives its own row; from the
    root down, the rows give the values."""
    inner = level_start(m, depth)
    alpha, beta = [Fraction(0)] * len(values), list(values)
    for x in reversed(range(inner)):
        a, w, b = row(x)
        succ = range(m * x + 1, m * x + m + 1)
        pivot = 1 - sum(wc * alpha[c] for wc, c in zip(w, succ))
        alpha[x] = a / pivot
        beta[x] = (b + sum(wc * beta[c] for wc, c in zip(w, succ))) / pivot
    u = list(values)
    for x in range(inner):
        u[x] = beta[x] + (alpha[x] * u[(x - 1) // m] if x else 0)
    return u


def exact_laplacian_full(m: int, depth: int, leaves) -> list[Fraction]:
    """The full-tree Laplacian's solution with the given leaf data, exact and
    in flat order: one `exact_eliminate` with the exact weights 2/(m+1)^2 of
    the predecessor and (m^2+2m-1)/(m+1)^2 of the successor average, and the
    successor average at the root."""
    c_pred, c_succ = Fraction(2, (m + 1) ** 2), Fraction(m * m + 2 * m - 1, (m + 1) ** 2)
    values = [Fraction(0)] * level_start(m, depth) + [Fraction(x) for x in leaves]

    def row(x):
        return (c_pred, [c_succ / m] * m, 0) if x else (0, [Fraction(1, m)] * m, 0)

    return exact_eliminate(m, depth, values, row)


@dataclass
class ExactRun:
    values: list[Fraction]  # flat order
    evaluations: int
    ties: int  # interior vertices whose least term at `values` more than one choice attains


def exact_howard(m: int, depth: int, leaves=None, obstacle=None) -> ExactRun:
    """The largest solution of the convex equation, or of its obstacle
    problem, exact, by Howard policy iteration.  From the sup of the leaf
    data (or from the obstacle, whose leaves are then the data), each step
    chooses at every interior vertex one term that attains the operator at
    the current values: a successor pair, off the root a predecessor branch
    with one successor, or the obstacle.  Of tied terms it keeps the previous
    choice, or else takes the first, and it counts the vertices with a tie.
    The chosen system is solved by `exact_eliminate`, until no choice
    changes.  Float data are converted exactly."""
    inner = level_start(m, depth)
    bound = None if obstacle is None else [Fraction(x) for x in obstacle]
    if bound is None:
        data = [Fraction(x) for x in leaves]
        values = [max(data)] * inner + data
    else:
        values = list(bound)
    zero, half, branch = Fraction(0), Fraction(1, 2), (Fraction(1, m + 1), Fraction(m, m + 1))
    rows = [(zero, tuple(half if c in pair else zero for c in range(m)), zero)
            for pair in combinations(range(m), 2)]
    rows += [(branch[0], tuple(branch[1] if c == y else zero for c in range(m)), zero)
             for y in range(m)]
    policy, evaluations = [None] * inner, 0
    while True:
        changed, ties = False, 0
        for x in range(inner):
            up = values[(x - 1) // m] if x else zero
            succ = values[m * x + 1: m * x + m + 1]
            choices = rows if x else rows[: m * (m - 1) // 2]
            if bound is not None:
                choices = choices + [(zero, (zero,) * m, bound[x])]
            terms = [a * up + sum(w * u for w, u in zip(ws, succ)) + b for a, ws, b in choices]
            least = min(terms)
            attain = [row for row, t in zip(choices, terms) if t == least]
            ties += len(attain) > 1
            if policy[x] not in attain:
                policy[x], changed = attain[0], True
        if not changed:
            return ExactRun(values, evaluations, ties)
        values = exact_eliminate(m, depth, values, policy.__getitem__)
        evaluations += 1


def descendants(tree: TruncatedTree, x0: Vertex):
    """(j, slice) for each level j levels below x0, down to the leaves: the
    m^j vertices there run on from x0's digits followed by j zeros."""
    for j in range(tree.depth - x0.level + 1):
        start = flat_index(tree.m, x0.digits + (0,) * j)
        yield j, slice(start, start + tree.m**j)


def reference_convex_indicator(tree: TruncatedTree, x0: Vertex) -> TreeFunction:
    """The closed-form convex function attached to a non-root vertex x0:
    ((m-1)/m) * sum_{i=0}^{|x|-|x0|} m^-i on the subtree below x0, else 0.
    Values are computed exactly and rounded to float once.

    For m >= 3 it satisfies u = op_convex(u) at every interior vertex.  For
    m = 2 it satisfies u <= op_convex(u) everywhere, with equality except
    at the root when |x0| = 1, where op_convex(u) - u = (m-1)/(2m) = 1/4.
    """
    if x0.is_root:
        raise ValueError("the reference indicator requires a non-root vertex")
    m = tree.m
    values = np.zeros(tree.vertex_count)
    for j, below in descendants(tree, x0):
        values[below] = float(Fraction(m - 1, m) * sum(Fraction(1, m**i) for i in range(j + 1)))
    return TreeFunction(tree, values)


def reference_binary_indicator(tree: TruncatedTree, x0: Vertex) -> TreeFunction:
    """The 0/1 indicator of the subtree below a non-root vertex x0.

    For m >= 3 it satisfies u = op_binary(u) at every interior vertex.  For
    m = 2 it satisfies u <= op_binary(u) everywhere, with equality except
    at the parent of x0, where op_binary(u) - u = 1/2.
    """
    if x0.is_root:
        raise ValueError("the reference indicator requires a non-root vertex")
    values = np.zeros(tree.vertex_count)
    for _, below in descendants(tree, x0):
        values[below] = 1.0
    return TreeFunction(tree, values)


def read_function_csv(path: str, tree: TruncatedTree) -> TreeFunction:
    """Read a function CSV (needs 'vertex' and 'value' columns) covering the
    whole truncated tree exactly once.  Errors name the file line of the row."""
    flat_of = {label: flat for flat, label in enumerate(tree.labels())}
    values = np.zeros(tree.vertex_count)
    seen = bytearray(tree.vertex_count)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or not {"vertex", "value"} <= set(header):
            raise ValueError(f"{path}: expected columns 'vertex' and 'value'")
        for column in ("vertex", "value"):
            if header.count(column) > 1:
                raise ValueError(f"{path}: duplicate column {column!r}")
        cells = {"vertex": header.index("vertex"), "value": header.index("value")}
        for row in reader:
            if not row:
                continue
            n = reader.line_num
            for column, cell in cells.items():
                if cell >= len(row):
                    raise ValueError(f"{path}: row {n}: missing {column!r} cell")
            text, value_text = row[cells["vertex"]], row[cells["value"]]
            flat = flat_of.get(text)
            if flat is None:
                # non-canonical text such as "00" or "1.02" names a vertex too
                try:
                    flat = tree.flat_index(Vertex.parse(tree.m, text))
                except ValueError as exc:
                    raise ValueError(f"{path}: row {n}: {exc}") from exc
            if seen[flat]:
                raise ValueError(f"{path}: row {n}: duplicate vertex {text!r}")
            try:
                value = float(value_text)
            except ValueError as exc:
                raise ValueError(f"{path}: row {n}: bad value {value_text!r}") from exc
            if not math.isfinite(value):
                raise ValueError(f"{path}: row {n}: non-finite value {value_text!r}")
            values[flat] = value
            seen[flat] = 1
    missing = seen.count(0)
    if missing:
        raise ValueError(f"{path}: {missing} of {tree.vertex_count} vertices missing "
                         f"for m={tree.m}, depth={tree.depth}")
    return TreeFunction.from_values(tree, values)
