"""The benchmark's workloads: seeded inputs, CLI invocations, output checks.

Each workload is a fixed sequence of `treeconvex` CLI invocations (one
*pass*).  Inputs are generated from the seed by `generate_inputs`, which runs
in its own interpreter so that its cost is the benchmark's set-up time.
Every invocation has a check that inspects only what the invocation wrote,
against routes that do not share the solve engine: exact level-by-level
eliminations written here in NumPy, and the library's pointwise operators
(`op_convex`, `op_binary`) on a seeded vertex sample.  The checks accept any
engine whose answer is within `VALUE_TOL` of the exact one; they never
require bit-identity with a particular engine.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

SOLVE_TOL = 1e-12      # the CLI's default stop rule for solves
PREDICATE_TOL = 1e-9   # the CLI's default tolerance for `check`
VALUE_TOL = 1e-9       # looser than the stop rule: any converged engine passes
DATUM_KNOTS = 513      # many knots keep the sweep count nearly seed-independent
SAMPLE = 256           # vertices per pointwise defect check
# Data lie in [0, 1], so raising an interior vertex of an envelope by 2 breaks
# every convexity inequality at that vertex and loosens all the others: each
# predicate must then report exactly that one vertex.
RAISE = 2.0

# Tree sizes per workload.  "full" is the benchmark; "tiny" is the smoke test.
SIZES = {
    "envelope-solve": {"full": {"depth": 17, "depths": (12, 13, 14, 15, 16, 17)},
                       "tiny": {"depth": 6, "depths": (3, 4, 5, 6)}},
    "artifact-io": {"full": {"m": 3, "depth": 10}, "tiny": {"m": 3, "depth": 3}},
    "obstacle-io": {"full": {"m": 5, "depth": 7}, "tiny": {"m": 5, "depth": 2}},
    "brute-oracles": {"full": {"depths": (5, 7)}, "tiny": {"depths": (3, 4)}},
}


@dataclass
class Op:
    """One CLI invocation and the check of what it wrote."""

    name: str
    args: list[str]
    artifacts: list[str]
    check: Callable[[], list[str]]


@dataclass
class Workload:
    name: str
    why: str
    build_ops: Callable[[str, int, dict], list[Op]]  # (workdir, seed, sizes) -> one pass


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, list(SIZES).index(workload)])


def _datum_knots(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    return np.linspace(0.0, 1.0, DATUM_KNOTS), rng.uniform(0.0, 1.0, DATUM_KNOTS)


def _write_datum(path: str, ts: np.ndarray, gs: np.ndarray) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("t,g\n" + "".join(f"{float(t)!r},{float(g)!r}\n" for t, g in zip(ts, gs)))


def _raised_vertex(seed: int, depth: int) -> int:
    """Flat index of the non-root interior vertex of the binary tree that the
    brute-oracles workload raises in its first input."""
    rng = np.random.default_rng([seed, depth])
    level = int(rng.integers(1, depth))
    return 2**level - 1 + int(rng.integers(0, 2**level))


def generate_inputs(workload: str, seed: int, size: str, workdir: str) -> list[str]:
    """Write the workload's input files into `workdir` through the library's
    public functions; return their paths."""
    import treeconvex as tc
    from treeconvex.cli import write_solution_csv

    sz = SIZES[workload][size]
    rng = _rng(seed, workload)
    if workload in ("envelope-solve", "artifact-io"):
        path = os.path.join(workdir, "datum.csv")
        _write_datum(path, *_datum_knots(rng))
        return [path]
    if workload == "obstacle-io":
        tree = tc.TruncatedTree(sz["m"], sz["depth"])
        path = os.path.join(workdir, "obstacle.csv")
        write_solution_csv(path, tree, rng.uniform(0.0, 1.0, tree.vertex_count))
        return [path]
    if workload == "brute-oracles":
        datum = tc.BoundaryDatum.piecewise_linear(list(zip(*_datum_knots(rng))))
        paths = []
        for depth in sz["depths"]:
            tree = tc.TruncatedTree(2, depth)
            report = tc.solve_dirichlet(tree, tc.sample_leaves(datum, tree), tc.SolveConfig())
            if not report.converged:
                raise RuntimeError(f"input envelope at depth {depth} did not converge")
            values = report.solution.values
            if depth == sz["depths"][0]:
                values[_raised_vertex(seed, depth)] += RAISE
            path = os.path.join(workdir, f"envelope-d{depth}.csv")
            write_solution_csv(path, tree, values)
            paths.append(path)
        return paths
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# exact references (NumPy, level by level; no fixed-point iteration)
# ---------------------------------------------------------------------------

def _level_offsets(m: int, depth: int) -> list[int]:
    offsets = [0]
    for level in range(depth + 1):
        offsets.append(offsets[-1] + m**level)
    return offsets


def _leaf_data(datum_path: str, m: int, depth: int) -> np.ndarray:
    """Point sampling g(k / m^depth) of a piecewise-linear datum file."""
    knots = np.loadtxt(datum_path, delimiter=",", skiprows=1, ndmin=2)
    psis = np.arange(m**depth, dtype=np.float64) / float(m**depth)
    return np.interp(psis, knots[:, 0], knots[:, 1])


def binary_envelope(leaves: np.ndarray, m: int, depth: int) -> np.ndarray:
    """Exact binary envelope: each vertex is the mean of its two smallest
    successors, computed once from the leaves up."""
    levels = [leaves]
    for _ in range(depth):
        two = np.sort(levels[-1].reshape(-1, m), axis=1)[:, :2]
        levels.append((two[:, 0] + two[:, 1]) / 2.0)
    return np.concatenate(levels[::-1])


def laplacian_full_root(leaves: np.ndarray, m: int, depth: int) -> float:
    """Root of the full-tree Laplacian Dirichlet problem by exact elimination:
    each vertex is written as u = a*u(parent) + b from the leaves up, and the
    root uses the successor-average rule."""
    c_pred = 2.0 / (m + 1) ** 2
    c_succ = (m * m + 2 * m - 1) / (m + 1) ** 2
    a = np.zeros_like(leaves)
    b = leaves
    for level in range(depth - 1, 0, -1):
        a_bar = a.reshape(-1, m).mean(axis=1)
        b_bar = b.reshape(-1, m).mean(axis=1)
        denom = 1.0 - c_succ * a_bar
        a, b = c_pred / denom, c_succ * b_bar / denom
    return float(b.mean() / (1.0 - a.mean()))


def convex_operator(values: np.ndarray, m: int, depth: int) -> np.ndarray:
    """op_convex at every interior vertex, in flat order."""
    off = _level_offsets(m, depth)
    out = []
    for level in range(depth):
        succ = np.sort(values[off[level + 1]:off[level + 2]].reshape(-1, m), axis=1)
        pair = (succ[:, 0] + succ[:, 1]) / 2.0
        if level > 0:
            parent = np.repeat(values[off[level - 1]:off[level]], m)
            pair = np.minimum(pair, (parent + m * succ[:, 0]) / (m + 1))
        out.append(pair)
    return np.concatenate(out)


# ---------------------------------------------------------------------------
# artifact parsing and checks
# ---------------------------------------------------------------------------

def _read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _read_rows(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _sample(rng_seed: int, n: int, count: int) -> list[int]:
    """Flat index 0 (the root) plus a seeded sample of [1, n)."""
    rng = np.random.default_rng(rng_seed)
    picks = rng.choice(np.arange(1, n), min(count, n - 1), replace=False)
    return [0] + sorted(int(i) for i in picks)


def _check_solution_csv(path: str, m: int, depth: int, sample: list[int],
                        coincidence: bool) -> tuple[list[str], list[list[str]]]:
    """Header, row count and the label columns of sampled rows, against the
    library's exact-rational vertex geometry."""
    from treeconvex.tree import TruncatedTree, psi

    tree = TruncatedTree(m, depth)
    header, rows = _read_rows(path)
    want = ["vertex", "level", "index", "psi", "value"] + (["coincidence"] if coincidence else [])
    problems = []
    if header != want:
        problems.append(f"{path}: header {header} != {want}")
    if len(rows) != tree.vertex_count:
        problems.append(f"{path}: {len(rows)} rows for {tree.vertex_count} vertices")
        return problems, rows
    for flat in sample:
        v = tree.vertex_at(flat)
        label = [str(v), str(v.level), str(v.index), repr(float(psi(v)))]
        if rows[flat][:4] != label:
            problems.append(f"{path}: row {flat + 2} starts {rows[flat][:4]}, expected {label}")
    return problems, rows


def _converged(payload: dict, path: str) -> list[str]:
    problems = []
    if payload.get("converged") is not True:
        problems.append(f"{path}: converged is {payload.get('converged')!r}")
    if not payload.get("final_residual", np.inf) <= SOLVE_TOL:
        problems.append(f"{path}: final_residual {payload.get('final_residual')!r} > {SOLVE_TOL}")
    return problems


def _pointwise_defect(values: np.ndarray, m: int, depth: int, sample: list[int],
                      op: str, obstacle: np.ndarray | None = None) -> list[str]:
    """|u - op(u)| (or |u - min(f, op(u))|) at the sampled interior vertices,
    through the library's pointwise operators."""
    from treeconvex.convexity import op_binary, op_convex
    from treeconvex.functions import TreeFunction
    from treeconvex.tree import TruncatedTree

    tree = TruncatedTree(m, depth)
    u = TreeFunction(tree, values)
    fn = {"convex": op_convex, "binary": op_binary}[op]
    problems = []
    for flat in sample:
        x = tree.vertex_at(flat)
        target = fn(u, x)
        if obstacle is not None:
            target = min(target, float(obstacle[flat]))
        if abs(values[flat] - target) > VALUE_TOL:
            problems.append(f"defect {abs(values[flat] - target):.3g} at vertex {x}")
    return problems[:5]


def _check_verdicts(payload: dict, path: str, interior: int, expected: dict,
                    violations: list[str] | None = None,
                    convex_band: tuple[int, int] | None = None) -> list[str]:
    """`check` verdicts against the input's known convexity.  `expected` maps
    each check to its verdict (None: not known); `violations`, if given, is
    the exact violation list of every check that ran.  Brute-force checks may
    be skipped by budget instead; operator checks never are."""
    checks = payload.get("checks", {})
    problems = []
    for name, want in expected.items():
        c = checks.get(name)
        if c is None:
            problems.append(f"{path}: no {name!r} check")
            continue
        if c.get("skipped") is not None:
            if name.endswith("operator") or "budget" not in c["skipped"]:
                problems.append(f"{path}: {name} skipped: {c['skipped'][:80]}")
            continue
        if want is not None and c.get("ok") is not want:
            problems.append(f"{path}: {name} ok={c.get('ok')!r}, expected {want}")
        if violations is not None and c.get("violations") != violations:
            problems.append(f"{path}: {name} violations {c.get('violations')}, "
                            f"expected {violations}")
        if name.endswith("operator") and c.get("checked") != interior:
            problems.append(f"{path}: {name} checked {c.get('checked')} of {interior} vertices")
    if convex_band is not None and "violations" in checks.get("convex_operator", {}):
        n = len(checks["convex_operator"]["violations"])
        if not convex_band[0] <= n <= convex_band[1]:
            problems.append(f"{path}: {n} convex_operator violations, expected {convex_band}")
    return problems


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _envelope_solve(workdir: str, seed: int, sz: dict) -> list[Op]:
    datum = os.path.join(workdir, "datum.csv")
    solve_json = os.path.join(workdir, "solve.json")
    conv_json = os.path.join(workdir, "converge.json")
    depths = list(sz["depths"])

    def check_solve() -> list[str]:
        payload = _read_json(solve_json)
        problems = _converged(payload, solve_json)
        if payload.get("monotone") is not True:
            problems.append(f"{solve_json}: descent not monotone")
        return problems

    def check_converge() -> list[str]:
        payload = _read_json(conv_json)
        problems = []
        if payload.get("depths") != depths or payload.get("converged") != [True] * len(depths):
            problems.append(f"{conv_json}: depths {payload.get('depths')}, "
                            f"converged {payload.get('converged')}")
            return problems
        for depth, root in zip(depths, payload["root_values"]):
            exact = laplacian_full_root(_leaf_data(datum, 2, depth), 2, depth)
            if abs(root - exact) > VALUE_TOL:
                problems.append(f"{conv_json}: depth {depth} root {root!r}, exact {exact!r}")
        return problems

    return [
        Op("solve", ["solve", "--m", "2", "--depth", str(sz["depth"]), "--variant", "convex",
                     "--datum", datum, "--out-json", solve_json], [solve_json], check_solve),
        Op("converge", ["converge", "--m", "2", "--variant", "laplacian-full",
                        "--depths", ",".join(map(str, depths)), "--datum", datum,
                        "--out-json", conv_json], [conv_json], check_converge),
    ]


def _artifact_io(workdir: str, seed: int, sz: dict) -> list[Op]:
    m, depth = sz["m"], sz["depth"]
    datum = os.path.join(workdir, "datum.csv")
    out = {ext: os.path.join(workdir, f"binary.{ext}") for ext in ("csv", "dot", "json")}
    check_json = os.path.join(workdir, "check.json")
    n = (m ** (depth + 1) - 1) // (m - 1)
    interior = n - m**depth
    sample = _sample(seed, n, SAMPLE)
    interior_sample = _sample(seed, interior, SAMPLE)

    def check_solve() -> list[str]:
        problems = _converged(_read_json(out["json"]), out["json"])
        csv_problems, rows = _check_solution_csv(out["csv"], m, depth, sample, coincidence=False)
        problems += csv_problems
        if problems:
            return problems
        texts = [r[4] for r in rows]
        values = np.array(texts, dtype=np.float64)
        exact = binary_envelope(_leaf_data(datum, m, depth), m, depth)
        err = float(np.max(np.abs(values - exact)))
        if err > VALUE_TOL:
            problems.append(f"{out['csv']}: max error {err:.3g} against the exact binary envelope")
        problems += _pointwise_defect(values, m, depth, interior_sample, "binary")
        problems += _check_dot(out["dot"], m, depth, texts, sample)
        return problems

    def check_check() -> list[str]:
        _, rows = _read_rows(out["csv"])
        values = np.array([r[4] for r in rows], dtype=np.float64)
        gap = values[:interior] - convex_operator(values, m, depth)
        # vertices within rounding of the threshold may go either way
        band = (int(np.sum(gap > PREDICATE_TOL + SOLVE_TOL)),
                int(np.sum(gap > PREDICATE_TOL - SOLVE_TOL)))
        convex = None if band[0] != band[1] else band[0] == 0
        expected = {"convex_operator": convex, "binary_operator": True,
                    "segment": convex, "binary_subtrees": True}
        return _check_verdicts(_read_json(check_json), check_json, interior, expected,
                               convex_band=band)

    return [
        Op("solve", ["solve", "--m", str(m), "--depth", str(depth), "--variant", "binary",
                     "--datum", datum, "--out-csv", out["csv"], "--out-dot", out["dot"],
                     "--out-json", out["json"]], list(out.values()), check_solve),
        Op("check", ["check", "--m", str(m), "--depth", str(depth), "--function", out["csv"],
                     "--out-json", check_json], [check_json], check_check),
    ]


def _check_dot(path: str, m: int, depth: int, value_texts: list[str],
               sample: list[int]) -> list[str]:
    """Line count, and the node and edge lines of sampled vertices."""
    from treeconvex.tree import TruncatedTree

    tree = TruncatedTree(m, depth)
    n = tree.vertex_count
    with open(path) as fh:
        lines = fh.read().split("\n")
    if len(lines) != 2 * n + 2 or lines[0] != "digraph tree {" or lines[-2:] != ["}", ""]:
        return [f"{path}: {len(lines)} lines, expected {2 * n + 2} framed by digraph braces"]
    problems = []
    for flat in sample:
        v = tree.vertex_at(flat)
        node = f'  "{v}" [label="{v}\\n{value_texts[flat]}"];'
        if lines[1 + flat] != node:
            problems.append(f"{path}: node line {lines[1 + flat]!r}, expected {node!r}")
        if flat > 0 and lines[n + flat] != f'  "{v.parent}" -> "{v}";':
            problems.append(f"{path}: edge line {lines[n + flat]!r} for vertex {v}")
    return problems[:5]


def _obstacle_io(workdir: str, seed: int, sz: dict) -> list[Op]:
    m, depth = sz["m"], sz["depth"]
    obstacle = os.path.join(workdir, "obstacle.csv")
    out_csv = os.path.join(workdir, "envelope.csv")
    out_json = os.path.join(workdir, "envelope.json")
    n = (m ** (depth + 1) - 1) // (m - 1)
    interior = n - m**depth
    sample = _sample(seed, n, SAMPLE)
    interior_sample = _sample(seed, interior, SAMPLE)

    def check() -> list[str]:
        payload = _read_json(out_json)
        problems = _converged(payload, out_json)
        for flag in ("min_values_match", "obstacle_minimizers_preserved"):
            if payload.get(flag) is not True:
                problems.append(f"{out_json}: {flag} is {payload.get(flag)!r}")
        csv_problems, rows = _check_solution_csv(out_csv, m, depth, sample, coincidence=True)
        problems += csv_problems
        if problems:
            return problems
        u = np.array([r[4] for r in rows], dtype=np.float64)
        touch = np.array([r[5] == "true" for r in rows])
        _, obs_rows = _read_rows(obstacle)
        f = np.array([r[4] for r in obs_rows], dtype=np.float64)
        leaves = slice(interior, n)
        if not np.all(u <= f + SOLVE_TOL):
            problems.append(f"{out_csv}: envelope exceeds the obstacle")
        if not np.array_equal(u[leaves], f[leaves]):
            problems.append(f"{out_csv}: leaves differ from the obstacle")
        if abs(u.min() - f.min()) > SOLVE_TOL:
            problems.append(f"{out_csv}: min {u.min()!r} != obstacle min {f.min()!r}")
        if not np.all(u[f <= f.min() + SOLVE_TOL] <= u.min() + SOLVE_TOL):
            problems.append(f"{out_csv}: obstacle minimizers not preserved")
        if not np.array_equal(touch, np.abs(u - f) <= SOLVE_TOL):
            problems.append(f"{out_csv}: coincidence column disagrees with |u - f| <= tol")
        if payload.get("coincidence_count") != int(touch.sum()):
            problems.append(f"{out_json}: coincidence_count {payload.get('coincidence_count')} "
                            f"!= {int(touch.sum())} rows")
        defect = np.abs(u[:interior] - np.minimum(f[:interior], convex_operator(u, m, depth)))
        if defect.max() > VALUE_TOL:
            problems.append(f"{out_csv}: defect {defect.max():.3g} at flat index {defect.argmax()}")
        problems += _pointwise_defect(u, m, depth, interior_sample, "convex", obstacle=f)
        return problems

    return [Op("obstacle", ["obstacle", "--m", str(m), "--depth", str(depth),
                            "--variant", "convex", "--obstacle", obstacle,
                            "--out-csv", out_csv, "--out-json", out_json],
               [out_csv, out_json], check)]


def _brute_oracles(workdir: str, seed: int, sz: dict) -> list[Op]:
    from treeconvex.tree import TruncatedTree

    ops = []
    for depth in sz["depths"]:
        function = os.path.join(workdir, f"envelope-d{depth}.csv")
        out_json = os.path.join(workdir, f"check-d{depth}.json")
        raised = depth == sz["depths"][0]
        expected = dict.fromkeys(("convex_operator", "binary_operator", "segment",
                                  "binary_subtrees"), not raised)
        violations = ([str(TruncatedTree(2, depth).vertex_at(_raised_vertex(seed, depth)))]
                      if raised else [])

        def check(out_json=out_json, depth=depth, expected=expected,
                  violations=violations) -> list[str]:
            return _check_verdicts(_read_json(out_json), out_json, 2**depth - 1, expected,
                                   violations)

        ops.append(Op(f"check-d{depth}", ["check", "--m", "2", "--depth", str(depth),
                                          "--function", function, "--out-json", out_json],
                      [out_json], check))
    return ops


WORKLOADS = {w.name: w for w in [
    Workload("envelope-solve",
             "solver engine and level kernels do ~95% of the work (min-kernel convex solve "
             "and linear laplacian-full study); I/O is negligible",
             _envelope_solve),
    Workload("artifact-io",
             "CSV/DOT/JSON writes and the CSV read dominate and the binary solve is trivial, "
             "so I/O changes show here and solver changes predict no change",
             _artifact_io),
    Workload("obstacle-io",
             "the I/O layer as reader and writer in one command plus the obstacle-clipped "
             "solve on 5-wide rows",
             _obstacle_io),
    Workload("brute-oracles",
             "the only workload that runs the brute-force segment and binary-subtree "
             "predicates to completion; all others skip them by budget",
             _brute_oracles),
]}
