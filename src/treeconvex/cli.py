"""Command-line front end: solve, check, obstacle, converge.

Exit codes: 0 success, 2 configuration or input error, 3 non-convergence
(artifacts are still written).  Identical configuration and inputs produce
byte-identical outputs; floats are serialized as the shortest decimal that
round-trips a 64-bit value.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import warnings
from functools import lru_cache
from itertools import islice
from typing import Iterable

import numpy as np

from .boundary import convergence_study, leaf_psi_values, parse_datum, sample_leaves
from .convexity import is_binary_convex, is_convex_operator, is_convex_segment
from .functions import TreeFunction
from .solver import SolveConfig, solve_dirichlet, solve_obstacle
from .tree import TruncatedTree, Vertex

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3

VARIANT_NAMES = {
    "convex": "convex",
    "binary": "binary",
    "kconvex": "kconvex",
    "laplacian-full": "laplacian_full",
    "laplacian-arb": "laplacian_arborescence",
}


def _fmt(x: float) -> str:
    return repr(float(x))


@lru_cache(maxsize=1)
def _labels(tree: TruncatedTree) -> list[str]:
    """`tree.labels()`, kept for the last tree so that the reader and the
    writers of one command build it once; callers only read it."""
    return tree.labels()


@lru_cache(maxsize=1)
def _texts_of(data: bytes) -> list[str]:
    """`repr` of each float64 in `data`, kept for the last array: the CSV and
    DOT writers of one command format each value once."""
    return list(map(repr, np.frombuffer(data).tolist()))


def _value_texts(values: np.ndarray) -> list[str]:
    return _texts_of(np.asarray(values, dtype=np.float64).tobytes())


def _write_lines(fh, lines: Iterable[str]) -> None:
    """Write each of `lines` and a newline, a few thousand lines per call:
    a call per line costs more, and one string per file holds all of it."""
    lines = iter(lines)
    while chunk := list(islice(lines, 8192)):
        fh.write("\n".join(chunk) + "\n")


def write_solution_csv(path: str, tree: TruncatedTree, values: np.ndarray,
                       coincidence: np.ndarray | None = None) -> None:
    """One row per vertex in flat order.  The psi column is the correctly
    rounded index / m^level (exact integers below 2^53, one IEEE division).
    That is the same rational as (index * m^(depth - level)) / m^depth, so
    each level's psi texts are the leaf level's at stride m^(depth - level),
    and only the leaf level is formatted."""
    header = "vertex,level,index,psi,value"
    if coincidence is not None:
        header += ",coincidence"
    labels, texts = _labels(tree), _value_texts(values)
    leaves = tree.leaf_count
    leaf_psi = list(map(repr, leaf_psi_values(tree).tolist()))
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for level in range(tree.depth + 1):
            rows = tree.level_slice(level)
            n = rows.stop - rows.start
            columns = [labels[rows], [str(level)] * n, map(str, range(n)),
                       leaf_psi[::leaves // n], texts[rows]]
            if coincidence is not None:
                columns.append(["true" if c else "false" for c in coincidence[rows].tolist()])
            _write_lines(fh, map(",".join, zip(*columns)))


def write_dot(path: str, tree: TruncatedTree, values: np.ndarray) -> None:
    labels, texts = _labels(tree), _value_texts(values)
    m = tree.m
    with open(path, "w", newline="\n") as fh:
        fh.write("digraph tree {\n")
        _write_lines(fh, (f'  "{v}" [label="{v}\\n{x}"];' for v, x in zip(labels, texts)))
        _write_lines(fh, (f'  "{labels[(i - 1) // m]}" -> "{labels[i]}";'
                          for i in range(1, len(labels))))
        fh.write("}\n")


def write_json(path: str, payload: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(json.dumps(payload, indent=2) + "\n")


def read_function_csv(path: str, tree: TruncatedTree) -> TreeFunction:
    """Read a function CSV (needs 'vertex' and 'value' columns) covering the
    whole truncated tree exactly once.  Errors name the file line of the row.

    A file whose vertex column is `tree.labels()` in flat order, with a
    finite number in every value cell, is read by column with NumPy's
    tokenizer.  Every other file is read row by row, which gives the same
    values and is the one source of every error message."""
    with open(path, newline="") as fh:
        header = next(_csv_rows(path, csv.reader(fh)), None)
    if header is None or not {"vertex", "value"} <= set(header):
        raise ValueError(f"{path}: expected columns 'vertex' and 'value'")
    for column in ("vertex", "value"):
        if header.count(column) > 1:
            raise ValueError(f"{path}: duplicate column {column!r}")
    cells = {"vertex": header.index("vertex"), "value": header.index("value")}
    values = _read_columns(path, tree, cells)
    if values is None:
        values = _read_rows(path, tree, cells)
    return TreeFunction.from_values(tree, values)


def _read_columns(path: str, tree: TruncatedTree, cells: dict[str, int]) -> np.ndarray | None:
    """The values of a canonical file, or None when the file is not
    canonical or a cell does not parse.  Each column is tokenized in a pass
    of its own, so only one column's cells are held at a time."""
    try:
        if _column(path, cells["vertex"]).tolist() != _labels(tree):
            return None
        # an object-to-float cast calls float() on each cell
        values = _column(path, cells["value"]).astype(np.float64)
    except ValueError:
        return None
    return values if np.isfinite(values).all() else None


def _column(path: str, cell: int) -> np.ndarray:
    """The cells of one column below the header, each the str that the csv
    module reads (dtype=str would drop trailing NUL characters)."""
    with open(path, newline="") as fh, warnings.catch_warnings():
        # blank lines and a file without rows warn; the row scan reads both
        warnings.simplefilter("ignore", UserWarning)
        next(csv.reader(fh))
        return np.loadtxt(fh, dtype=object, delimiter=",", comments=None, quotechar='"',
                          usecols=cell, ndmin=1)


def _csv_rows(path: str, reader):
    """The rows of a csv reader; a row the csv module refuses, such as a
    cell longer than `csv.field_size_limit()`, raises a ValueError naming
    its file line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise ValueError(f"{path}: row {reader.line_num}: {exc}") from exc


def _read_rows(path: str, tree: TruncatedTree, cells: dict[str, int]) -> np.ndarray:
    """The values of any function CSV, one row at a time, with the error
    message and file line of the first row that is refused."""
    flat_of = {label: flat for flat, label in enumerate(_labels(tree))}
    values = np.zeros(tree.vertex_count)
    seen = bytearray(tree.vertex_count)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = _csv_rows(path, reader)
        next(rows)
        for row in rows:
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
    return values


def _parse_sampling(spec: str) -> tuple[str, int]:
    if spec == "point":
        return "point", 16
    if spec == "inf":
        return "inf_subsample", 16
    if spec.startswith("inf:"):
        try:
            n = int(spec.split(":", 1)[1])
        except ValueError as exc:
            raise ValueError(f"malformed sampling spec {spec!r}") from exc
        return "inf_subsample", n
    raise ValueError(f"sampling must be 'point' or 'inf:N', got {spec!r}")


def _build_config(args: argparse.Namespace) -> SolveConfig:
    return SolveConfig(variant=VARIANT_NAMES[args.variant], k=args.k, tol=args.tol,
                       max_iter=args.max_iter)


def _config_echo(args: argparse.Namespace, command: str) -> dict:
    echo = {
        "command": command,
        "m": args.m,
        "depth": getattr(args, "depth", None),
        "variant": args.variant,
        "k": args.k,
        "tol": args.tol,
        "max_iter": args.max_iter,
    }
    if getattr(args, "datum", None) is not None:
        echo["datum"] = args.datum
        echo["sampling"] = args.sampling
    if args.variant == "kconvex" and args.k is not None and args.k > args.m - 2:
        echo["k_range_note"] = (
            f"k={args.k} exceeds m-2={args.m - 2}: the k-subset equation is "
            "applied beyond the range where k-convexity is usually posed")
    return echo


def _report_dict(report) -> dict:
    return {
        "iterations": report.iterations,
        "final_residual": report.final_residual,
        "converged": report.converged,
        "monotone": report.monotone,
    }


def _exit_code(report) -> int:
    if report.converged:
        return EXIT_OK
    print(f"did not converge after {report.iterations} iterations: residual "
          f"{report.final_residual} at vertex {report.worst_vertex}, last change "
          f"{report.last_change}", file=sys.stderr)
    return EXIT_NO_CONVERGENCE


def cmd_solve(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    tree = TruncatedTree(args.m, args.depth)
    datum = parse_datum(args.datum)
    mode, subsamples = _parse_sampling(args.sampling)
    leaves = sample_leaves(datum, tree, mode, subsamples)
    report = solve_dirichlet(tree, leaves, cfg)

    values = report.solution.values
    if args.out_csv:
        write_solution_csv(args.out_csv, tree, values)
    if args.out_dot:
        write_dot(args.out_dot, tree, values)
    if args.out_json:
        payload = _config_echo(args, "solve")
        payload.update(_report_dict(report))
        write_json(args.out_json, payload)
    return _exit_code(report)


def _check_payload(check, labels: list[str]) -> dict:
    out: dict = {}
    if check.skipped is not None:
        out["skipped"] = check.skipped
        out["ok"] = None
    else:
        out["ok"] = check.ok
        out["checked"] = check.checked
        out["violations"] = [labels[i] for i in check._flat]
    return out


def cmd_check(args: argparse.Namespace) -> int:
    tree = TruncatedTree(args.m, args.depth)
    u = read_function_csv(args.function, tree)
    tol = args.tol
    labels = _labels(tree)
    checks = {
        "convex_operator": _check_payload(is_convex_operator(u, tol), labels),
        "binary_operator": _check_payload(is_binary_convex(u, tol, mode="operator"), labels),
        "segment": _check_payload(is_convex_segment(u, tol), labels),
        "binary_subtrees": _check_payload(is_binary_convex(u, tol, mode="subtrees"), labels),
    }
    payload = {
        "command": "check",
        "m": args.m,
        "depth": args.depth,
        "function": args.function,
        "tol": tol,
        "checks": checks,
    }
    if args.out_json:
        write_json(args.out_json, payload)
    else:
        print(json.dumps(payload, indent=2))
    return EXIT_OK


def cmd_obstacle(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    tree = TruncatedTree(args.m, args.depth)
    f = read_function_csv(args.obstacle, tree)
    result = solve_obstacle(tree, f, cfg)
    values = result.envelope.values

    if args.out_csv:
        write_solution_csv(args.out_csv, tree, values, coincidence=result.coincidence_mask)
    if args.out_dot:
        write_dot(args.out_dot, tree, values)
    if args.out_json:
        min_env = float(values.min())
        min_obs = float(f.values.min())
        obstacle_minimizers = np.nonzero(f.values <= min_obs + cfg.tol)[0]
        preserved = bool(np.all(values[obstacle_minimizers] <= min_env + cfg.tol))
        payload = _config_echo(args, "obstacle")
        payload["obstacle"] = args.obstacle
        payload.update(_report_dict(result.report))
        payload.update({
            "coincidence_count": int(result.coincidence_mask.sum()),
            "min_envelope": min_env,
            "min_obstacle": min_obs,
            "min_values_match": bool(abs(min_env - min_obs) <= cfg.tol),
            "obstacle_minimizers_preserved": preserved,
        })
        write_json(args.out_json, payload)
    return _exit_code(result.report)


def cmd_converge(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    datum = parse_datum(args.datum)
    mode, subsamples = _parse_sampling(args.sampling)
    depths = [int(d) for d in args.depths.split(",")]
    series = convergence_study(datum, args.m, depths, cfg, mode, subsamples)

    if args.out_csv:
        lines = ["depth,root_value,delta"]
        for i, (depth, root) in enumerate(zip(series.depths, series.root_values)):
            delta = "" if i == 0 else _fmt(series.deltas[i - 1])
            lines.append(f"{depth},{_fmt(root)},{delta}")
        with open(args.out_csv, "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    if args.out_json:
        payload = _config_echo(args, "converge")
        payload["depths"] = series.depths
        payload["root_values"] = series.root_values
        payload["deltas"] = series.deltas
        payload["converged"] = series.converged
        payload["worst_vertices"] = [str(v) for v in series.worst_vertices]
        payload["deltas_all_positive"] = bool(all(d > 0 for d in series.deltas))
        payload["deltas_non_increasing_after_first"] = bool(all(
            b <= a for a, b in zip(series.deltas[1:], series.deltas[2:])))
        write_json(args.out_json, payload)
    if not all(series.converged):
        bad = [d for d, ok in zip(series.depths, series.converged) if not ok]
        print(f"did not converge at depths {bad}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser, need_depth: bool = True) -> None:
    parser.add_argument("--m", type=int, required=True, help="branching factor (>= 2)")
    if need_depth:
        parser.add_argument("--depth", type=int, required=True, help="truncation depth (>= 1)")
    parser.add_argument("--variant", choices=sorted(VARIANT_NAMES), default="convex")
    parser.add_argument("--k", type=int, default=None, help="subset size for kconvex")
    parser.add_argument("--tol", type=float, default=1e-12)
    parser.add_argument("--max-iter", type=int, default=1_000_000)


def _add_outputs(parser: argparse.ArgumentParser, dot: bool = True) -> None:
    parser.add_argument("--out-csv", default=None)
    parser.add_argument("--out-json", default=None)
    if dot:
        parser.add_argument("--out-dot", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treeconvex",
        description="Convex envelopes, obstacle problems, and Laplacians on "
                    "regular m-branching trees")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_solve = sub.add_parser("solve", help="solve a Dirichlet problem from a boundary datum")
    _add_common(p_solve)
    p_solve.add_argument("--datum", required=True,
                         help="constant:c | affine:a,b | power:p | absdev:c | "
                              "indicator:lo,hi | piecewise CSV path")
    p_solve.add_argument("--sampling", default="point", help="point | inf:N")
    _add_outputs(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_check = sub.add_parser("check", help="run convexity predicates on a function CSV")
    p_check.add_argument("--m", type=int, required=True)
    p_check.add_argument("--depth", type=int, required=True)
    p_check.add_argument("--function", required=True, help="function CSV covering the tree")
    p_check.add_argument("--tol", type=float, default=1e-9)
    p_check.add_argument("--out-json", default=None)
    p_check.set_defaults(func=cmd_check)

    p_obs = sub.add_parser("obstacle", help="solve the obstacle problem for a function CSV")
    _add_common(p_obs)
    p_obs.add_argument("--obstacle", required=True, help="obstacle CSV covering the tree")
    _add_outputs(p_obs)
    p_obs.set_defaults(func=cmd_obstacle)

    p_conv = sub.add_parser("converge", help="root-value depth-convergence study")
    _add_common(p_conv, need_depth=False)
    p_conv.add_argument("--datum", required=True)
    p_conv.add_argument("--sampling", default="point")
    p_conv.add_argument("--depths", required=True, help="comma-separated increasing depths")
    _add_outputs(p_conv, dot=False)
    p_conv.set_defaults(func=cmd_converge)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
