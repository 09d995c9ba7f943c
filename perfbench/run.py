"""Benchmark of the treeconvex CLI, end to end and layer by layer.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workloads are defined in `workloads.py`.  A run
  1. generates the workload's inputs from the seed in a fresh interpreter,
     SETUP_REPEATS times (`setup_s` is the median of these);
  2. repeats timed passes for S seconds.  A pass runs the
     workload's CLI invocations one at a time (closed loop, one client), each
     in a fresh interpreter so that no in-process cache survives between
     invocations; CPU time and peak RSS come from each child's rusage;
  3. with --trace 1, runs one more pass through `tracer.py`, which records
     spans around the package's layers, and reports per-layer metrics; and
     a last pass that traces allocations inside the solves.
Every invocation's output is checked (see `workloads.py`) and must be
byte-identical in every pass of the run; an invocation that exits non-zero
or fails a check counts as failed.  The last line of standard output is a
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

from workloads import SIZES, WORKLOADS, Op

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "kernels.level_operator_s": "s",
    "kernels.level_operator_calls": "count",
    "kernels.rows": "count",
    "kernels.rows_per_s": "1/s",
    "kernels.bytes_computed": "B",
    "kernels.apply_operator_calls": "count",
    "kernels.self_s": "s",
    "solver.solve_s": "s",
    "solver.self_s": "s",
    "solver.iterations": "count",
    "solver.defect_evals": "count",
    "solver.alloc_peak_mb": "MB",
    "solver.coincidence": "count",
    "boundary.sample_s": "s",
    "boundary.leaves": "count",
    "boundary.study_s": "s",
    "boundary.self_s": "s",
    "cli.write_csv_s": "s",
    "cli.write_csv_mb": "MB",
    "cli.write_dot_s": "s",
    "cli.write_dot_mb": "MB",
    "cli.read_csv_s": "s",
    "cli.read_csv_rows": "count",
    "cli.write_json_s": "s",
    "cli.self_s": "s",
    "cli.import_s": "s",
    "convexity.operator_check_s": "s",
    "convexity.segment_s": "s",
    "convexity.segment_constraints": "count",
    "convexity.subtree_s": "s",
    "convexity.subtrees": "count",
    "convexity.skipped": "count",
    "convexity.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.uncovered_s": "s",
}
# Span durations reported as metrics (span name -> metric).
SPAN_METRICS = {
    "kernels.level_operator": "kernels.level_operator_s",
    "solver.solve": "solver.solve_s",
    "boundary.sample": "boundary.sample_s",
    "boundary.study": "boundary.study_s",
    "cli.write_csv": "cli.write_csv_s",
    "cli.write_dot": "cli.write_dot_s",
    "cli.read_csv": "cli.read_csv_s",
    "cli.write_json": "cli.write_json_s",
    "convexity.operator_check": "convexity.operator_check_s",
    "convexity.segment": "convexity.segment_s",
    "convexity.subtree": "convexity.subtree_s",
}


@dataclass
class Child:
    code: int
    wall: float
    cpu: float
    rss_mb: float


@dataclass
class Run:
    """Counters and first-pass artifact digests of one benchmark run."""

    root: str
    workdir: str
    attempted: int = 0
    failed: int = 0
    digests: dict = field(default_factory=dict)
    log: list = field(default_factory=list)

    def env(self) -> dict:
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        return env

    def spawn(self, argv: list[str], tag: str) -> Child:
        """Run a child to completion; rusage comes from os.wait4."""
        with open(os.path.join(self.workdir, f"{tag}.out"), "w") as out, \
                open(os.path.join(self.workdir, f"{tag}.err"), "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env(), cwd=self.root)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)

    def invoke(self, op: Op, argv: list[str], tag: str,
               after: Callable[[Op], None] | None = None) -> Child:
        """Run one operation, check its output, and count it."""
        child = self.spawn(argv, tag)
        if after is not None:
            after(op)
        self.attempted += 1
        problems = []
        if child.code != 0:
            with open(os.path.join(self.workdir, f"{tag}.err")) as fh:
                problems.append(f"exit code {child.code}: {fh.read()[-500:].strip()}")
        else:
            try:
                problems = op.check()
                digests = {path: _digest(path) for path in op.artifacts}
                first = self.digests.setdefault(op.name, digests)
                problems += [f"{path} differs from the first pass"
                             for path in digests if digests[path] != first[path]]
            except Exception as exc:  # output that cannot be read fails its check
                problems = [f"check raised {exc!r}"]
        if problems:
            self.failed += 1
            self.log.append(f"{tag}: " + "; ".join(problems))
        return child


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def setup(run: Run, workload: str, seed: int, size: str) -> float:
    """Generate the inputs SETUP_REPEATS times in fresh interpreters; return
    the median wall time.  Every repeat must write the same bytes."""
    times, digests = [], []
    for i in range(SETUP_REPEATS):
        for name in os.listdir(run.workdir):
            os.remove(os.path.join(run.workdir, name))
        child = run.spawn([sys.executable, os.path.join(HERE, "gen_inputs.py"), workload,
                           str(seed), size, run.workdir], f"setup{i}")
        with open(os.path.join(run.workdir, f"setup{i}.out")) as fh:
            where = fh.read().strip()
        if child.code != 0 or not os.path.realpath(where).startswith(
                os.path.join(run.root, "src") + os.sep):
            with open(os.path.join(run.workdir, f"setup{i}.err")) as fh:
                raise SystemExit(f"input generation failed (exit {child.code}, treeconvex "
                                 f"from {where or '?'}): {fh.read()[-500:]}")
        times.append(child.wall)
        digests.append({n: _digest(os.path.join(run.workdir, n))
                        for n in sorted(os.listdir(run.workdir)) if not n.startswith("setup")})
    if any(d != digests[0] for d in digests):
        raise SystemExit(f"input generation for seed {seed} is not deterministic")
    return statistics.median(times)


def timed_pass(run: Run, ops: list[Op], index: int,
               after: Callable[[Op], None] | None = None) -> tuple[float, float, float]:
    """(wall, cpu, peak RSS) of one pass: sums over its invocations, and the
    largest child RSS."""
    children = [run.invoke(op, [sys.executable, "-m", "treeconvex.cli", *op.args],
                           f"pass{index}-{op.name}", after) for op in ops]
    return (sum(c.wall for c in children), sum(c.cpu for c in children),
            max(c.rss_mb for c in children))


def traced_pass(run: Run, ops: list[Op], alloc: bool = False) -> tuple[float, list[dict]]:
    """Wall time and span files of one pass run through the tracer."""
    wall, traces = 0.0, []
    tag = "alloc" if alloc else "trace"
    for op in ops:
        spans = os.path.join(run.workdir, f"{tag}-{op.name}.json")
        flags = ["--alloc"] if alloc else []
        child = run.invoke(op, [sys.executable, os.path.join(HERE, "tracer.py"), *flags, spans,
                                *op.args], f"{tag}-{op.name}")
        wall += child.wall
        if child.code == 0:
            with open(spans) as fh:
                traces.append(json.load(fh))
    return wall, traces


def layer_metrics(traces: list[dict], traced_wall: float, untraced_wall: float,
                  alloc_traces: list[dict]) -> dict:
    """Per-layer metrics from the spans of a traced pass.  A span's self time
    is its duration minus that of its child spans; the import time, the self
    times of all spans and `trace.uncovered_s` (interpreter start-up, tracer
    installation, span output) add up to the traced pass's wall time.  The
    allocation peak comes from the separate --alloc pass."""
    duration: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    covered = import_s = 0.0
    for trace in traces:
        spans = trace["spans"]
        inner = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                inner[parent] += end - start
        for (name, start, end, parent), children in zip(spans, inner):
            duration[name] += end - start
            own[name] += end - start - children
            if parent < 0:
                covered += end - start
        import_s += trace["import_s"]
        covered += trace["import_s"]
        for key, value in trace["counts"].items():
            counts[key] += value

    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update(counts)
    for span, metric in SPAN_METRICS.items():
        metrics[metric] = duration[span]
    for layer in ("kernels", "solver", "boundary", "convexity"):
        metrics[f"{layer}.self_s"] = sum(t for n, t in own.items() if n.startswith(layer + "."))
    metrics["cli.self_s"] = own["cli.main"]
    metrics["cli.import_s"] = import_s
    metrics["solver.alloc_peak_mb"] = max(
        (t["counts"]["solver.alloc_peak_mb"] for t in alloc_traces), default=0.0)
    level_s = metrics["kernels.level_operator_s"]
    metrics["kernels.rows_per_s"] = metrics["kernels.rows"] / level_s if level_s > 0 else 0.0
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    metrics["trace.uncovered_s"] = traced_wall - covered
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool, root: str,
                 size: str = "full", after: Callable[[Op], None] | None = None) -> dict:
    """One benchmark run.  `after(op)` is called after each timed invocation
    exits and before its output is checked (the smoke test perturbs outputs
    through it)."""
    root = os.path.realpath(root)
    if os.path.join(root, "src") not in sys.path:  # the checks use the library's pointwise routes
        sys.path.insert(0, os.path.join(root, "src"))
    workdir = os.path.join(root, ".perfbench_work", f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        run = Run(root, workdir)
        setup_s = setup(run, workload, seed, size)
        ops = WORKLOADS[workload].build_ops(workdir, seed, SIZES[workload][size])
        passes = []
        deadline = time.perf_counter() + seconds
        # start a pass only if it would likely end no more than half a pass after
        # the deadline, so runs end at the deadline on average; run at least one
        while not passes or time.perf_counter() + passes[-1][0] / 2 <= deadline:
            passes.append(timed_pass(run, ops, len(passes), after))
        wall, cpu, rss = (statistics.median(column) for column in zip(*passes))
        if trace:
            traced_wall, traces = traced_pass(run, ops)
            metrics = layer_metrics(traces, traced_wall, wall, traced_pass(run, ops, alloc=True)[1])
            units = PER_LAYER
            _print_accounting(metrics)
        else:
            metrics = {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss, "setup_s": setup_s}
            units = END_TO_END
        for line in run.log:
            print(f"FAILED {line}", file=sys.stderr)
        print(f"{workload} seed {seed}: {len(passes)} passes, median wall {wall:.3f} s, "
              f"cpu {cpu:.3f} s, peak RSS {rss:.1f} MB, setup {setup_s:.3f} s; "
              f"{run.failed} of {run.attempted} invocations failed", file=sys.stderr)
        return {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))


def _print_accounting(m: dict) -> None:
    parts = [("import", m["cli.import_s"]), ("cli main", m["cli.self_s"])]
    parts += [(name, m[f"cli.{name}_s"]) for name in ("read_csv", "write_csv", "write_dot",
                                                      "write_json")]
    parts += [(layer, m[f"{layer}.self_s"]) for layer in ("solver", "kernels", "boundary",
                                                          "convexity")]
    parts.append(("uncovered", m["trace.uncovered_s"]))
    print(f"traced pass {m['trace.wall_s']:.3f} s = "
          + " + ".join(f"{name} {t:.3f}" for name, t in parts)
          + f"; tracing overhead {m['trace.overhead_s']:.3f} s", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "treeconvex", "cli.py")):
        print("error: run from the root of a treeconvex checkout (no src/treeconvex here)",
              file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), root)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
