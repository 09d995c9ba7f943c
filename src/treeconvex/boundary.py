"""Boundary data on [0, 1], leaf sampling, and depth-convergence studies.

Leaf values approximate a boundary condition posed on the infinite branches:
point mode evaluates the datum at psi(leaf); inf mode takes the minimum over
uniform subsamples of the leaf's base-m interval, matching the one-sided
sense in which envelopes meet their datum.

The digit-expansion map is not injective on the branch space (two branches
can share a base-m rational value); nothing here needs a canonical choice
because data are only ever evaluated at the finitely many leaf values, and
no attainment is claimed at interval endpoints.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field

import numpy as np

from .solver import SolveConfig, solve_dirichlet
from .tree import TruncatedTree, Vertex

CONVERGENCE_LEAF_BUDGET = 2**24


@dataclass(frozen=True)
class BoundaryDatum:
    """A closed-form function g: [0, 1] -> R from a small builtin family, or a
    piecewise-linear table.  Evaluation is deterministic and vectorized."""

    kind: str
    params: tuple[float, ...] = ()
    knots: tuple[tuple[float, float], ...] = field(default_factory=tuple)

    @classmethod
    def constant(cls, c: float) -> BoundaryDatum:
        return cls("constant", (float(c),))

    @classmethod
    def affine(cls, slope: float, intercept: float) -> BoundaryDatum:
        """g(t) = slope * t + intercept."""
        return cls("affine", (float(slope), float(intercept)))

    @classmethod
    def power(cls, p: float) -> BoundaryDatum:
        if p < 0:
            raise ValueError(f"power exponent must be >= 0, got {p}")
        return cls("power", (float(p),))

    @classmethod
    def abs_dev(cls, c: float) -> BoundaryDatum:
        """g(t) = |t - c|."""
        return cls("abs_dev", (float(c),))

    @classmethod
    def indicator(cls, lo: float, hi: float) -> BoundaryDatum:
        """g = 1 on the closed interval [lo, hi], else 0."""
        if not lo <= hi:
            raise ValueError(f"indicator needs lo <= hi, got [{lo}, {hi}]")
        return cls("indicator", (float(lo), float(hi)))

    @classmethod
    def piecewise_linear(cls, knots) -> BoundaryDatum:
        pts = tuple((float(t), float(g)) for t, g in knots)
        if len(pts) < 2:
            raise ValueError("piecewise datum needs at least two knots")
        bad = _knot_error(pts)
        if bad is not None:
            raise ValueError(f"knot {bad[0]}: {bad[1]}")
        return cls("piecewise_linear", (), pts)

    def evaluate(self, ts: np.ndarray) -> np.ndarray:
        t = np.asarray(ts, dtype=np.float64)
        if self.kind == "constant":
            return np.full_like(t, self.params[0])
        if self.kind == "affine":
            slope, intercept = self.params
            return slope * t + intercept
        if self.kind == "power":
            return t ** self.params[0]
        if self.kind == "abs_dev":
            return np.abs(t - self.params[0])
        if self.kind == "indicator":
            lo, hi = self.params
            return ((t >= lo) & (t <= hi)).astype(np.float64)
        if self.kind == "piecewise_linear":
            xs = np.array([p[0] for p in self.knots])
            ys = np.array([p[1] for p in self.knots])
            return np.interp(t, xs, ys)
        raise ValueError(f"unknown datum kind {self.kind!r}")


def _knot_error(pts) -> tuple[int, str] | None:
    """The first bad knot of a table of at least two, as (its number from 1,
    the reason), or None; `piecewise_linear` and `load_datum_csv` both say it."""
    if pts[0][0] != 0.0:
        return 1, f"first t must be 0, got {pts[0][0]}"
    if pts[-1][0] != 1.0:
        return len(pts), f"last t must be 1, got {pts[-1][0]}"
    for i in range(1, len(pts)):
        if not pts[i][0] > pts[i - 1][0]:
            return i + 1, f"t must increase strictly ({pts[i][0]} after {pts[i - 1][0]})"
    return None


def load_datum_csv(path: str) -> BoundaryDatum:
    """Piecewise-linear datum file: header "t,g", strictly increasing t,
    first t = 0, last t = 1."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = list(reader)
    if not rows:
        raise ValueError(f"{path}: empty datum file")
    header = [c.strip() for c in rows[0]]
    if header != ["t", "g"]:
        raise ValueError(f'{path}: expected header "t,g", got {",".join(header)!r}')
    knots = []
    for n, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise ValueError(f"{path}: row {n}: expected 2 columns, got {len(row)}")
        try:
            knots.append((float(row[0]), float(row[1])))
        except ValueError as exc:
            raise ValueError(f"{path}: row {n}: non-numeric entry {row!r}") from exc
    bad = _knot_error(knots) if len(knots) >= 2 else None
    if bad is not None:
        # knot i sits at data row i + 1
        raise ValueError(f"{path}: row {bad[0] + 1}: {bad[1]}")
    return BoundaryDatum.piecewise_linear(knots)


def parse_datum(spec: str) -> BoundaryDatum:
    """Parse a datum spec: "constant:c", "affine:slope,intercept", "power:p",
    "absdev:c", "indicator:lo,hi", or a path to a piecewise-linear CSV."""
    if ":" in spec:
        kind, _, arg = spec.partition(":")
        kind = kind.strip().lower()
        try:
            args = [float(a) for a in arg.split(",")] if arg else []
        except ValueError as exc:
            raise ValueError(f"malformed datum arguments in {spec!r}") from exc
        if kind in ("constant", "const") and len(args) == 1:
            return BoundaryDatum.constant(args[0])
        if kind == "affine" and len(args) == 2:
            return BoundaryDatum.affine(args[0], args[1])
        if kind == "power" and len(args) == 1:
            return BoundaryDatum.power(args[0])
        if kind in ("absdev", "abs_dev") and len(args) == 1:
            return BoundaryDatum.abs_dev(args[0])
        if kind == "indicator" and len(args) == 2:
            return BoundaryDatum.indicator(args[0], args[1])
        raise ValueError(
            f"unknown datum spec {spec!r}; expected constant:c, affine:a,b, "
            f"power:p, absdev:c, indicator:lo,hi, or a CSV file path")
    if os.path.exists(spec):
        return load_datum_csv(spec)
    raise ValueError(f"datum {spec!r} is neither a builtin family nor an existing file")


def leaf_psi_values(tree: TruncatedTree) -> np.ndarray:
    """psi of each leaf in index order: k / m^depth."""
    return np.arange(tree.leaf_count, dtype=np.float64) / float(tree.m**tree.depth)


def sample_leaves(
    g: BoundaryDatum,
    tree: TruncatedTree,
    mode: str = "point",
    subsamples: int = 16,
) -> np.ndarray:
    """Leaf values for the datum: g(psi(leaf)) in point mode, or the minimum
    of g over subsamples+1 uniform points of the leaf interval in inf mode."""
    psis = leaf_psi_values(tree)
    if mode == "point":
        return g.evaluate(psis)
    if mode != "inf_subsample":
        raise ValueError(f"mode must be 'point' or 'inf_subsample', got {mode!r}")
    if subsamples < 1:
        raise ValueError(f"inf mode needs subsamples >= 1, got {subsamples}")
    width = 1.0 / float(tree.m**tree.depth)
    offsets = np.arange(subsamples + 1) * (width / subsamples)
    out = np.empty(tree.leaf_count)
    block = 1 << 16
    for start in range(0, tree.leaf_count, block):
        pts = psis[start : start + block, None] + offsets[None, :]
        out[start : start + block] = g.evaluate(pts.ravel()).reshape(pts.shape).min(axis=1)
    return out


@dataclass
class ConvergenceSeries:
    depths: list[int]
    root_values: list[float]
    deltas: list[float]  # |root(depth_i) - root(depth_{i+1})| for consecutive entries
    converged: list[bool]
    worst_vertices: list[Vertex]  # each depth's worst-defect interior vertex


def convergence_study(
    g: BoundaryDatum,
    m: int,
    depths: list[int],
    cfg: SolveConfig,
    sampling: str = "point",
    subsamples: int = 16,
) -> ConvergenceSeries:
    """Solve the cfg.variant Dirichlet problem at each depth and record the
    root values and their successive gaps."""
    if not depths:
        raise ValueError("depths must be non-empty")
    if any(d2 <= d1 for d1, d2 in zip(depths, depths[1:])):
        raise ValueError(f"depths must be strictly increasing, got {depths}")
    for depth in depths:
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        # 2^depth alone is over the budget from its bit length on; m^depth is
        # then not formed, nor printed (it may pass `str`'s digit limit)
        over = depth >= CONVERGENCE_LEAF_BUDGET.bit_length()
        if over or m**depth > CONVERGENCE_LEAF_BUDGET:
            leaves = "" if over else f" = {m**depth}"
            raise ValueError(
                f"depth {depth} exceeds the study budget "
                f"(m^depth{leaves} > {CONVERGENCE_LEAF_BUDGET} leaves)")

    root_values: list[float] = []
    converged: list[bool] = []
    worst: list[Vertex] = []
    for depth in depths:
        tree = TruncatedTree(m, depth)
        leaves = sample_leaves(g, tree, sampling, subsamples)
        report = solve_dirichlet(tree, leaves, cfg)
        root_values.append(float(report.solution.values[0]))
        converged.append(report.converged)
        worst.append(report.worst_vertex)
    deltas = [abs(b - a) for a, b in zip(root_values, root_values[1:])]
    return ConvergenceSeries(list(depths), root_values, deltas, converged, worst)
