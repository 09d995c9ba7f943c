"""Run one `treeconvex` CLI invocation with spans around its layers.

Usage: python perfbench/tracer.py [--alloc] SPANS.json CLI-ARGUMENTS...

The public functions that `cli.main` reaches are wrapped where the calling
modules look them up (their module attributes), then `cli.main` runs once.
Spans (name, start, end, parent) and counters stay in memory and are written
to SPANS.json at exit, together with the exit code and the import time.
A target the package no longer has is skipped; its metrics then read 0.

With --alloc, tracemalloc runs during each solve span and the peak of the
memory allocated inside it is recorded.  Tracing allocations slows the solve
severalfold, so the times of such a run are not used.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
import tracemalloc

LAYERS = ("_kernels", "solver", "boundary", "convexity", "cli")


class Tracer:
    def __init__(self, alloc: bool = False) -> None:
        self.alloc = alloc
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = {}
        self.alloc_peak = 0
        self._stack: list[int] = []

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, count=None, alloc: bool = False):
        """`name` is a span name or a function of the bound arguments;
        `count(tracer, args, result)` records counters after the call."""
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*a, **kw):
            args = sig.bind(*a, **kw)
            args.apply_defaults()
            args = args.arguments
            own_alloc = alloc and self.alloc and not tracemalloc.is_tracing()
            if own_alloc:
                tracemalloc.start()
            span = self.begin(name(args) if callable(name) else name)
            try:
                result = fn(*a, **kw)
            finally:
                self.end(span)
                if own_alloc:
                    self.alloc_peak = max(self.alloc_peak, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            if count is not None:
                count(self, args, result)
            return result

        return traced


def _level_rows(t: Tracer, args: dict, result) -> None:
    tree, level = args["tree"], args["level"]
    n = tree.level_size(level)
    reads_parent = level > 0 and args["variant"] in ("convex", "laplacian_full")
    t.add("kernels.level_operator_calls", 1)
    t.add("kernels.rows", n)
    # successor block read, parent values read (predecessor families), row written
    t.add("kernels.bytes_computed", 8 * (n * tree.m + (n if reads_parent else 0) + n))


def _solve_counts(t: Tracer, args: dict, result) -> None:
    report = getattr(result, "report", result)
    t.add("solver.iterations", report.iterations)
    if hasattr(result, "coincidence_mask"):
        t.add("solver.coincidence", int(result.coincidence_mask.sum()))


def _file_mb(key: str):
    def count(t: Tracer, args: dict, result) -> None:
        t.add(key, os.path.getsize(args["path"]) / 1e6)
    return count


def _check_counts(key: str | None):
    def count(t: Tracer, args: dict, result) -> None:
        if result.skipped is not None:
            t.add("convexity.skipped", 1)
        elif key is not None:
            t.add(key, result.checked)
    return count


def _binary_name(args: dict) -> str:
    return "convexity.subtree" if args["mode"] == "subtrees" else "convexity.operator_check"


def _binary_counts(t: Tracer, args: dict, result) -> None:
    _check_counts("convexity.subtrees" if args["mode"] == "subtrees" else None)(t, args, result)


# (module, attribute, span name, counter, trace allocations)
TARGETS = [
    ("cli", "write_solution_csv", "cli.write_csv", _file_mb("cli.write_csv_mb"), False),
    ("cli", "write_dot", "cli.write_dot", _file_mb("cli.write_dot_mb"), False),
    ("cli", "write_json", "cli.write_json", None, False),
    ("cli", "read_function_csv", "cli.read_csv",
     lambda t, a, r: t.add("cli.read_csv_rows", r.values.size), False),
    ("boundary", "sample_leaves", "boundary.sample",
     lambda t, a, r: t.add("boundary.leaves", r.size), False),
    ("boundary", "convergence_study", "boundary.study", None, False),
    ("solver", "solve_dirichlet", "solver.solve", _solve_counts, True),
    ("solver", "solve_laplacian", "solver.solve", _solve_counts, True),
    ("solver", "solve_obstacle", "solver.solve", _solve_counts, True),
    ("solver", "_defect", "solver.defect", lambda t, a, r: t.add("solver.defect_evals", 1), False),
    ("_kernels", "level_operator", "kernels.level_operator", _level_rows, False),
    ("_kernels", "apply_operator", "kernels.apply_operator",
     lambda t, a, r: t.add("kernels.apply_operator_calls", 1), False),
    ("convexity", "is_convex_operator", "convexity.operator_check", _check_counts(None), False),
    ("convexity", "is_binary_convex", _binary_name, _binary_counts, False),
    ("convexity", "is_convex_segment", "convexity.segment",
     _check_counts("convexity.segment_constraints"), False),
]


def install(tracer: Tracer) -> None:
    """Replace every module attribute of the package's layers that holds a
    target function by its traced wrapper."""
    import importlib

    modules = [importlib.import_module(f"treeconvex.{name}") for name in LAYERS]
    wrapped = {}
    for module, attr, name, count, alloc in TARGETS:
        fn = getattr(importlib.import_module(f"treeconvex.{module}"), attr, None)
        if fn is not None:
            wrapped[id(fn)] = tracer.wrap(fn, name, count, alloc)
    for module in modules:
        for attr, value in list(vars(module).items()):
            if id(value) in wrapped:
                setattr(module, attr, wrapped[id(value)])


def main(argv: list[str]) -> int:
    alloc = argv[0] == "--alloc"
    out, cli_args = argv[alloc], argv[alloc + 1:]
    start = time.perf_counter()
    from treeconvex import cli
    import_s = time.perf_counter() - start
    tracer = Tracer(alloc)
    install(tracer)
    span = tracer.begin("cli.main")
    try:
        code = cli.main(cli_args)
    finally:
        tracer.end(span)
    if alloc:
        tracer.counts["solver.alloc_peak_mb"] = tracer.alloc_peak / 1e6
    with open(out, "w") as fh:
        json.dump({"exit": code, "import_s": import_s, "spans": tracer.spans,
                   "counts": tracer.counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
