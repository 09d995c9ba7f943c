"""Independent routes to the brute-force constraint arrays of
`treeconvex.convexity` and to the function-CSV reader of `treeconvex.cli`,
for tests only.

Segments come from `minimal_path` and exact `Fraction` distances, one vertex
pair at a time; binary subtrees come from `enumerate_binary_subtrees` and
`BinarySubtree.endpoint_weights`.  Both return the arrays in the layout the
library's predicates evaluate, so the tests can demand bitwise equality.
`read_function_csv` reads every file one `csv` row at a time.
"""

from __future__ import annotations

import csv
import math
from fractions import Fraction

import numpy as np

from treeconvex import TreeFunction, TruncatedTree, Vertex, enumerate_binary_subtrees
from treeconvex.tree import distance, minimal_path


def segment_constraints(tree: TruncatedTree):
    """(iz, ix, iy, wx, wy): one row per vertex pair x < y in flat order and
    z strictly inside the minimal path [x, y], z in path order from x."""
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
    return (np.array(iz, dtype=np.int64), np.array(ix, dtype=np.int64),
            np.array(iy, dtype=np.int64), np.array(wx), np.array(wy))


def subtree_constraints(tree: TruncatedTree, max_rel_depth: int | None = None):
    """(roots, endpoints, weights): one row per binary subtree of every
    interior vertex in flat order, padded to the widest row with endpoint 0
    and weight 0."""
    roots: list[int] = []
    rows: list[tuple[list[int], list[float]]] = []
    for x in tree.vertices():
        rel = tree.depth - x.level
        if max_rel_depth is not None:
            rel = min(rel, max_rel_depth)
        if rel < 1:
            continue
        for sub in enumerate_binary_subtrees(tree, x, rel):
            roots.append(tree.flat_index(x))
            rows.append(([tree.flat_index(y) for y in sub.endpoints],
                         [float(w) for w in sub.endpoint_weights()]))
    width = max((len(e) for e, _ in rows), default=0)
    endpoints = np.zeros((len(rows), width), dtype=np.int64)
    weights = np.zeros((len(rows), width))
    for r, (e, w) in enumerate(rows):
        endpoints[r, : len(e)] = e
        weights[r, : len(w)] = w
    return np.array(roots, dtype=np.int64), endpoints, weights


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
