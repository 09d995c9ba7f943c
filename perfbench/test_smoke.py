"""Smoke test of the benchmark harness at toy sizes.

Run from the repository root:  python -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)


def _units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_declared_workloads_and_metrics_match_the_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert _units("end_to_end") == run.END_TO_END
    assert _units("per_layer") == run.PER_LAYER


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_emits_every_metric_and_passes_its_checks(workload):
    timed = run.run_workload(workload, seed=3, seconds=0, trace=False, root=ROOT, size="tiny")
    assert timed["correct"] and timed["failed"] == 0 and timed["attempted"] >= 1
    assert {k: v["unit"] for k, v in timed["metrics"].items()} == _units("end_to_end")
    assert all(v["value"] > 0 for v in timed["metrics"].values())

    traced = run.run_workload(workload, seed=3, seconds=0, trace=True, root=ROOT, size="tiny")
    assert traced["correct"] and traced["failed"] == 0
    m = {k: v["value"] for k, v in traced["metrics"].items()}
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == _units("per_layer")
    # import, span self times and the uncovered remainder add up to the traced wall time
    parts = [m["cli.import_s"], m["cli.self_s"], m["cli.read_csv_s"], m["cli.write_csv_s"],
             m["cli.write_dot_s"], m["cli.write_json_s"], m["solver.self_s"], m["kernels.self_s"],
             m["boundary.self_s"], m["convexity.self_s"], m["trace.uncovered_s"]]
    assert sum(parts) == pytest.approx(m["trace.wall_s"], abs=1e-6)
    assert all(p >= 0 for p in parts)


def _bump_root_value(path):
    with open(path) as fh:
        lines = fh.read().split("\n")
    cells = lines[1].split(",")
    cells[4] = repr(float(cells[4]) + 1e-6)
    lines[1] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines))


def _bump_converge_root(path):
    with open(path) as fh:
        payload = json.load(fh)
    payload["root_values"][-1] += 1e-6
    with open(path, "w") as fh:
        json.dump(payload, fh)


@pytest.mark.parametrize("workload, op_name, artifact, perturb", [
    ("artifact-io", "solve", "binary.csv", _bump_root_value),
    ("obstacle-io", "obstacle", "envelope.csv", _bump_root_value),
    ("envelope-solve", "converge", "converge.json", _bump_converge_root),
])
def test_perturbed_output_counts_as_failure(workload, op_name, artifact, perturb):
    def after(op):
        if op.name == op_name:
            perturb(next(p for p in op.artifacts if p.endswith(artifact)))

    result = run.run_workload(workload, seed=3, seconds=0, trace=False, root=ROOT,
                              size="tiny", after=after)
    assert not result["correct"]
    assert result["failed"] >= 1


def test_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "artifact-io",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
