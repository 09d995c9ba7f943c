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
from dataclasses import dataclass

import numpy as np

from .functions import csv_rows
from .solver import SolveConfig, solve_dirichlet
from .tree import TruncatedTree, Vertex, check_integer, leaf_psi_values

CONVERGENCE_LEAF_BUDGET = 2**24
SUBSAMPLE_BUDGET = 2**16  # inf mode's N; each block holds about 2^20 points


# spec name -> (how the spec spells its parameters, the vectorized g(t, *params),
# and None or the rule that gives the reason to refuse finite parameters as given)
_FAMILIES = {
    "constant": ("c", lambda t, c: np.full_like(t, c), None),
    "affine": ("a,b", lambda t, slope, intercept: slope * t + intercept, None),
    "power": ("p", lambda t, p: t**p,
              lambda p: f"power exponent must be >= 0, got {p}" if p < 0 else None),
    "absdev": ("c", lambda t, c: np.abs(t - c), None),
    "indicator": ("lo,hi", lambda t, lo, hi: ((t >= lo) & (t <= hi)).astype(np.float64),
                  lambda lo, hi: f"indicator needs lo <= hi, got [{lo}, {hi}]" if lo > hi
                  else None),
}


@dataclass(frozen=True)
class BoundaryDatum:
    """A closed-form function g: [0, 1] -> R from a builtin family of
    `_FAMILIES`, or a piecewise-linear table (kind "piecewise_linear", with
    knots).  It is checked when built; evaluation is deterministic and
    vectorized."""

    kind: str
    params: tuple[float, ...] = ()
    knots: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        kind, p = self.kind, self.params
        if kind == "piecewise_linear":
            pts = tuple((float(t), float(g)) for t, g in self.knots)
            if len(pts) < 2:
                raise ValueError("piecewise datum needs at least two knots")
            bad = _knot_error(pts)
            if bad is not None:
                raise ValueError(f"knot {bad[0]}: {bad[1]}")
            object.__setattr__(self, "knots", pts)
        elif kind not in _FAMILIES:
            raise ValueError(f"unknown datum kind {kind!r}")
        spelling, _, rule = _FAMILIES.get(kind, ("", None, None))
        names = spelling.split(",") if spelling else []
        if len(p) != len(names):
            raise ValueError(f"{kind} datum takes {len(names)} parameters, got {len(p)}")
        for name, value in zip(names, map(float, p)):
            if not np.isfinite(value):
                raise ValueError(f"{kind} parameter {name} must be finite, got {value}")
        reason = rule and rule(*p)
        if reason:
            raise ValueError(reason)
        object.__setattr__(self, "params", tuple(map(float, p)))

    @classmethod
    def piecewise_linear(cls, knots) -> BoundaryDatum:
        return cls("piecewise_linear", (), knots)

    def evaluate(self, ts: np.ndarray) -> np.ndarray:
        t = np.asarray(ts, dtype=np.float64)
        if self.kind == "piecewise_linear":
            return np.interp(t, *np.array(self.knots).T)
        return _FAMILIES[self.kind][1](t, *self.params)


def _knot_error(pts) -> tuple[int, str] | None:
    """The first bad knot of a table of at least two, as (its number from 1,
    the reason), or None; a piecewise datum and `load_datum_csv` both say it."""
    for i, knot in enumerate(pts, start=1):
        for name, value in zip("tg", knot):
            if not np.isfinite(value):
                return i, f"{name} must be finite, got {value}"
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
    first t = 0, last t = 1.  Blank lines after the header are skipped, and
    errors name the file line of the row."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = [(reader.line_num, row) for row in csv_rows(path, reader)]
    if not rows:
        raise ValueError(f"{path}: empty datum file")
    header = [c.strip() for c in rows[0][1]]
    if header != ["t", "g"]:
        raise ValueError(f'{path}: expected header "t,g", got {",".join(header)!r}')
    knots, lines = [], []
    for n, row in rows[1:]:
        if not row:
            continue
        if len(row) != 2:
            raise ValueError(f"{path}: row {n}: expected 2 columns, got {len(row)}")
        try:
            knots.append((float(row[0]), float(row[1])))
        except ValueError as exc:
            raise ValueError(f"{path}: row {n}: non-numeric entry {row!r}") from exc
        lines.append(n)
    if len(knots) < 2:
        raise ValueError(f"{path}: piecewise datum needs at least two knots, got {len(knots)}")
    bad = _knot_error(knots)
    if bad is not None:
        raise ValueError(f"{path}: row {lines[bad[0] - 1]}: {bad[1]}")
    return BoundaryDatum.piecewise_linear(knots)


def parse_datum(spec: str) -> BoundaryDatum:
    """Parse a datum spec: "constant:c", "affine:slope,intercept", "power:p",
    "absdev:c", "indicator:lo,hi" (the families of `_FAMILIES`), or a path to
    a piecewise-linear CSV."""
    if ":" in spec:
        kind, _, arg = spec.partition(":")
        kind = kind.strip().lower()
        try:
            args = [float(a) for a in arg.split(",")] if arg else []
        except ValueError as exc:
            raise ValueError(f"malformed datum arguments in {spec!r}") from exc
        if kind in _FAMILIES and len(args) == len(_FAMILIES[kind][0].split(",")):
            return BoundaryDatum(kind, tuple(args))
        families = "".join(f"{name}:{row[0]}, " for name, row in _FAMILIES.items())
        raise ValueError(f"unknown datum spec {spec!r}; expected {families}or a CSV file path")
    if os.path.exists(spec):
        return load_datum_csv(spec)
    raise ValueError(f"datum {spec!r} is neither a builtin family nor an existing file")


def sample_leaves(g: BoundaryDatum, tree: TruncatedTree,
                  subsamples: int | None = None) -> np.ndarray:
    """Leaf values for the datum: g(psi(leaf)) in point mode (`subsamples`
    None), or the minimum of g over subsamples+1 uniform points of the leaf
    interval in inf mode."""
    # a value that overflows is refused by the solve as not finite; NumPy's
    # warning would only come first
    with np.errstate(over="ignore", invalid="ignore"):
        psis = leaf_psi_values(tree)
        if subsamples is None:
            return g.evaluate(psis)
        check_integer("subsamples", subsamples)
        if subsamples < 1:
            raise ValueError(f"inf mode needs subsamples >= 1, got {subsamples}")
        if subsamples > SUBSAMPLE_BUDGET:
            raise ValueError(f"inf mode: {subsamples} subsamples exceed the budget "
                             f"of {SUBSAMPLE_BUDGET} per leaf")
        width = 1.0 / float(tree.m**tree.depth)
        offsets = np.arange(subsamples + 1) * (width / subsamples)
        out = np.empty(tree.leaf_count)
        # each leaf's minimum is over the same points whatever the block size
        block = max(1, (1 << 20) // (subsamples + 1))
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
    subsamples: int | None = None,
) -> ConvergenceSeries:
    """Solve the cfg.variant Dirichlet problem at each depth, with leaves
    sampled as `sample_leaves` does, and record the root values and their
    successive gaps."""
    if not depths:
        raise ValueError("depths must be non-empty")
    m, depths = check_integer("m", m), [check_integer("depth", d) for d in depths]
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
            raise ValueError(f"depth {depth} exceeds the study budget "
                             f"(m^depth{leaves} > {CONVERGENCE_LEAF_BUDGET} leaves)")

    rows = []
    for depth in depths:
        tree = TruncatedTree(m, depth)
        report = solve_dirichlet(tree, sample_leaves(g, tree, subsamples), cfg)
        rows.append((float(report.solution.values[0]), report.converged, report.worst_vertex))
    root_values, converged, worst = map(list, zip(*rows))
    deltas = [abs(b - a) for a, b in zip(root_values, root_values[1:])]
    return ConvergenceSeries(list(depths), root_values, deltas, converged, worst)
