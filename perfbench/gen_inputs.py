"""Generate one workload's seeded inputs in a fresh interpreter.

Usage: python perfbench/gen_inputs.py WORKLOAD SEED SIZE WORKDIR

Prints the path of the imported `treeconvex` package, so the caller can
confirm it measured the checkout's own sources.
"""

import sys

from workloads import generate_inputs

if __name__ == "__main__":
    workload, seed, size, workdir = sys.argv[1:]
    generate_inputs(workload, int(seed), size, workdir)
    import treeconvex

    print(treeconvex.__file__)
