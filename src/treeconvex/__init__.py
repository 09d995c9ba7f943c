"""Convex envelopes, obstacle problems, and Laplacians on regular m-branching trees.

Names and submodules load on first use (PEP 562), so `import treeconvex`
imports neither NumPy nor any submodule: the command line sets NumPy's
environment before NumPy loads, and each command imports only what it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "_kernels": ("ENVELOPE_VARIANTS", "LAPLACIAN_VARIANTS"),
    "boundary": ("BoundaryDatum", "ConvergenceSeries", "convergence_study", "load_datum_csv",
                 "parse_datum", "sample_leaves"),
    "convexity": ("ConvexityCheck", "is_binary_convex", "is_convex_operator",
                  "is_convex_segment", "op_binary", "op_convex"),
    "functions": ("TreeFunction",),
    "solver": ("ObstacleResult", "SolveConfig", "SolveReport", "residual", "solve_dirichlet",
               "solve_obstacle"),
    "tree": ("TruncatedTree", "Vertex", "leaf_psi_values", "psi"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli")

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_SUBMODULES})
