"""Convex envelopes, obstacle problems, and Laplacians on regular m-branching trees."""

from ._kernels import ENVELOPE_VARIANTS, LAPLACIAN_VARIANTS
from .boundary import (
    BoundaryDatum,
    ConvergenceSeries,
    convergence_study,
    leaf_psi_values,
    load_datum_csv,
    parse_datum,
    sample_leaves,
)
from .convexity import (
    ConvexityCheck,
    arborescence_laplacian,
    eigenvalues_binary,
    eigenvalues_convex,
    eigenvalues_k,
    is_binary_convex,
    is_convex_operator,
    is_convex_segment,
    laplacian_residual,
    op_binary,
    op_convex,
    op_kconvex,
    reference_binary_indicator,
    reference_convex_indicator,
)
from .functions import TreeFunction
from .solver import (
    ObstacleResult,
    SolveConfig,
    SolveReport,
    residual,
    solve_dirichlet,
    solve_obstacle,
)
from .tree import TruncatedTree, Vertex, psi

__version__ = "0.1.0"
