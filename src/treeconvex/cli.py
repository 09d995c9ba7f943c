"""Command-line front end: solve, check, obstacle, converge.

Exit codes: 0 success, 2 configuration or input error, 3 non-convergence
(artifacts are still written).  Identical configuration and inputs produce
byte-identical outputs; floats are serialized as the shortest decimal that
round-trips a 64-bit value.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import warnings
from functools import lru_cache
from itertools import islice
from typing import Iterable

# No command calls BLAS, and OpenBLAS's thread pool costs every process CPU
# at start-up; the cap acts only before NumPy loads. A value already set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from ._kernels import _VARIANTS, check_variant
from .functions import TreeFunction, csv_rows
from .tree import TruncatedTree, Vertex, leaf_psi_values

# Each command imports the layers it runs (`check` needs no solver).

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3

_VARIANT_OF = {row.cli: variant for variant, row in _VARIANTS.items()}  # spelling -> name


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


def _check_length(tree: TruncatedTree, name: str, column) -> None:
    if np.shape(column) != (tree.vertex_count,):
        raise ValueError(f"expected {tree.vertex_count} {name}, got shape {np.shape(column)}")


def write_solution_csv(path: str, tree: TruncatedTree, values: np.ndarray,
                       coincidence: np.ndarray | None = None) -> None:
    """One row per vertex in flat order.  The psi column is the correctly
    rounded index / m^level (exact integers below 2^53, one IEEE division).
    That is the same rational as (index * m^(depth - level)) / m^depth, so
    each level's psi texts are the leaf level's at stride m^(depth - level),
    and only the leaf level is formatted."""
    _check_length(tree, "values", values)
    header = "vertex,level,index,psi,value"
    if coincidence is not None:
        _check_length(tree, "coincidence flags", coincidence)
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
    _check_length(tree, "values", values)
    labels, texts = _labels(tree), _value_texts(values)
    m = tree.m
    with open(path, "w", newline="\n") as fh:
        fh.write("digraph tree {\n")
        _write_lines(fh, (f'  "{v}" [label="{v}\\n{x}"];' for v, x in zip(labels, texts)))
        _write_lines(fh, (f'  "{labels[(i - 1) // m]}" -> "{labels[i]}";'
                          for i in range(1, len(labels))))
        fh.write("}\n")


def write_json(path: str, payload: dict) -> None:
    """`payload` as JSON, each non-finite float (which JSON cannot spell) as
    null."""
    with open(path, "w", newline="\n") as fh:
        fh.write(json.dumps(_finite_or_null(payload), indent=2) + "\n")


def _finite_or_null(x):
    if isinstance(x, dict):
        return {key: _finite_or_null(value) for key, value in x.items()}
    if isinstance(x, (list, tuple)):
        return list(map(_finite_or_null, x))
    return None if isinstance(x, float) and not math.isfinite(x) else x


def read_function_csv(path: str, tree: TruncatedTree) -> TreeFunction:
    """Read a function CSV (needs 'vertex' and 'value' columns) covering the
    whole truncated tree exactly once.  Errors name the file line of the row.

    A file whose vertex column is `tree.labels()` in flat order, with a
    finite number in every value cell, is read by column in one pass of
    NumPy's tokenizer.  Every other file is read row by row, which gives the
    same values and is the one source of every error message.  The file is
    read once, so a pipe serves as well as a file on disk."""
    with open(path, "rb") as fh:
        data = fh.read()
    with _text(data) as fh:
        header = next(csv_rows(path, csv.reader(fh)), None)
        if header is None or not {"vertex", "value"} <= set(header):
            raise ValueError(f"{path}: expected columns 'vertex' and 'value'")
        for column in ("vertex", "value"):
            if header.count(column) > 1:
                raise ValueError(f"{path}: duplicate column {column!r}")
        cells = {"vertex": header.index("vertex"), "value": header.index("value")}
        values = _read_columns(data, fh, tree, cells)
    if values is None:
        values = _read_rows(data, path, tree, cells)
    return TreeFunction.from_values(tree, values)


def _text(data: bytes) -> io.TextIOWrapper:
    """A text stream over `data`, decoded as `open(path, newline="")` decodes
    the file."""
    return io.TextIOWrapper(io.BytesIO(data), newline="")


def _read_columns(data: bytes, fh, tree: TruncatedTree, cells: dict) -> np.ndarray | None:
    """The values of a canonical file, read in one tokenizer pass over `fh`,
    or None when the file is not canonical or a cell does not parse.  Vertex
    cells are bytes one wider than the longest label ("root" or the last
    leaf's), so that a longer cell cannot be cut to a label.  A NUL (dropped
    at the end of a bytes cell) or a non-ASCII byte (read unlike `float()`
    and the locale decode) leaves the file to the row scan."""
    if not data.isascii() or b"\0" in data or _may_pass_field_limit(data):
        return None
    labels = _labels(tree)
    kinds = {"vertex": f"S{max(len(labels[0]), len(labels[-1])) + 1}", "value": np.float64}
    order = sorted(cells, key=cells.get)  # the fields follow the file's columns
    with warnings.catch_warnings():
        # blank lines and a file without rows warn; the row scan reads both
        warnings.simplefilter("ignore", UserWarning)
        try:
            table = np.loadtxt(fh, dtype=[(c, kinds[c]) for c in order], delimiter=",",
                               comments=None, quotechar='"', usecols=[cells[c] for c in order])
        except ValueError:
            return None
    if not np.array_equal(table["vertex"], np.array(labels, dtype=kinds["vertex"])):
        return None
    return table["value"] if np.isfinite(table["value"]).all() else None


def _may_pass_field_limit(data: bytes) -> bool:
    """Whether a cell of `data` may be longer than `csv.field_size_limit()`,
    which only the row scan refuses.  A quoted cell may span lines; any
    other lies within a line, and a line longer than the limit holds a whole
    window of `step` bytes without a line break."""
    limit = csv.field_size_limit()
    step = limit // 2 + 1
    return len(data) > limit and (b'"' in data or any(
        data.find(b"\n", i, i + step) < 0 and data.find(b"\r", i, i + step) < 0
        for i in range(0, len(data) - step + 1, step)))


def _read_rows(data: bytes, path: str, tree: TruncatedTree, cells: dict[str, int]) -> np.ndarray:
    """The values of any function CSV, one row at a time, with the error
    message and file line of the first row that is refused."""
    flat_of = {label: flat for flat, label in enumerate(_labels(tree))}
    values = np.zeros(tree.vertex_count)
    seen = bytearray(tree.vertex_count)
    with _text(data) as fh:
        reader = csv.reader(fh)
        rows = csv_rows(path, reader)
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


def _parse_sampling(spec: str) -> int | None:
    """The `subsamples` of `sample_leaves`: None for "point", N for "inf:N"."""
    if spec == "point":
        return None
    if spec.startswith("inf:"):
        try:
            return int(spec.split(":", 1)[1])
        except ValueError as exc:
            raise ValueError(f"malformed sampling spec {spec!r}") from exc
    raise ValueError(f"sampling must be 'point' or 'inf:N', got {spec!r}")


def _build_config(args: argparse.Namespace):
    from .solver import SolveConfig
    variant = _VARIANT_OF[args.variant]
    check_variant(variant, args.k, name=args.variant)  # the error names it as typed
    return SolveConfig(variant=variant, k=args.k, tol=args.tol, max_iter=args.max_iter)


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
    if _VARIANTS[_VARIANT_OF[args.variant]].takes_k and args.k > args.m - 2:
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
    from .boundary import parse_datum, sample_leaves
    from .solver import solve_dirichlet
    cfg = _build_config(args)
    tree = TruncatedTree(args.m, args.depth)
    datum = parse_datum(args.datum)
    leaves = sample_leaves(datum, tree, _parse_sampling(args.sampling))
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
        out["violations"] = [labels[i] for i in check.violations]
    return out


def cmd_check(args: argparse.Namespace) -> int:
    from .convexity import is_binary_convex, is_convex_operator, is_convex_segment

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
    from .solver import solve_obstacle
    cfg = _build_config(args)
    tree = TruncatedTree(args.m, args.depth)
    f = read_function_csv(args.obstacle, tree)
    result = solve_obstacle(f, cfg)
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
    from .boundary import convergence_study, parse_datum
    cfg = _build_config(args)
    datum = parse_datum(args.datum)
    subsamples = _parse_sampling(args.sampling)
    try:
        depths = [int(d) for d in args.depths.split(",")]
    except ValueError as exc:
        raise ValueError(f"malformed depths {args.depths!r}") from exc
    series = convergence_study(datum, args.m, depths, cfg, subsamples)

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


def _add_common(parser: argparse.ArgumentParser, need_depth: bool = True,
                variants: Iterable[str] = _VARIANT_OF) -> None:
    parser.add_argument("--m", type=int, required=True, help="branching factor (>= 2)")
    if need_depth:
        parser.add_argument("--depth", type=int, required=True, help="truncation depth (>= 1)")
    parser.add_argument("--variant", choices=sorted(variants), default="convex")
    parser.add_argument("--k", type=int, default=None, help="subset size for kconvex")
    parser.add_argument("--tol", type=float, default=1e-12)
    parser.add_argument("--max-iter", type=int, default=1_000_000)


def _add_datum(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--datum", required=True,
                        help="constant:c | affine:a,b | power:p | absdev:c | "
                             "indicator:lo,hi | piecewise CSV path")
    parser.add_argument("--sampling", default="point", help="point | inf:N")


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
    _add_datum(p_solve)
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
    _add_common(p_obs, variants=[row.cli for row in _VARIANTS.values() if row.envelope])
    p_obs.add_argument("--obstacle", required=True, help="obstacle CSV covering the tree")
    _add_outputs(p_obs)
    p_obs.set_defaults(func=cmd_obstacle)

    p_conv = sub.add_parser("converge", help="root-value depth-convergence study")
    _add_common(p_conv, need_depth=False)
    _add_datum(p_conv)
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
